package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"provnet/internal/data"
	"provnet/internal/datalog"
)

// newNode builds an engine for node self with the given program source,
// localizing it first.
func newNode(t *testing.T, self, src string, authenticated bool) *Engine {
	t.Helper()
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	loc, err := datalog.Localize(prog)
	if err != nil {
		t.Fatalf("localize: %v", err)
	}
	e := New(Config{Self: self, Authenticated: authenticated})
	if err := e.LoadProgram(loc); err != nil {
		t.Fatalf("load: %v", err)
	}
	return e
}

// runCluster drives a set of engines to a distributed fixpoint, delivering
// exports between them directly. It returns the number of messages
// exchanged.
func runCluster(t *testing.T, nodes map[string]*Engine) int {
	t.Helper()
	msgs := 0
	for round := 0; ; round++ {
		if round > 10000 {
			t.Fatal("cluster did not reach fixpoint")
		}
		progress := false
		for _, e := range nodes {
			for _, ex := range e.RunToFixpoint() {
				dst, ok := nodes[ex.Dest]
				if !ok {
					t.Fatalf("export to unknown node %q", ex.Dest)
				}
				if err := dst.InsertImportedFrom("", ex.Tuple, nil); err != nil {
					t.Fatalf("import: %v", err)
				}
				msgs++
				progress = true
			}
		}
		if !progress {
			pending := false
			for _, e := range nodes {
				if e.Pending() {
					pending = true
				}
			}
			if !pending {
				return msgs
			}
		}
	}
}

func tupleStrings(ts []data.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

func wantTuples(t *testing.T, got []data.Tuple, want ...string) {
	t.Helper()
	gs := tupleStrings(got)
	if len(gs) != len(want) {
		t.Fatalf("got %d tuples %v, want %d %v", len(gs), gs, len(want), want)
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("tuple[%d] = %s, want %s", i, gs[i], want[i])
		}
	}
}

func TestSingleRuleLocalDerivation(t *testing.T) {
	e := newNode(t, "a", `r1 reachable(@S,D) :- link(@S,D).`, false)
	e.InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b")))
	exports := e.RunToFixpoint()
	if len(exports) != 0 {
		t.Fatalf("unexpected exports: %v", exports)
	}
	wantTuples(t, e.Tuples("reachable"), "reachable(a, b)")
}

func TestRuleIgnoresOtherLocations(t *testing.T) {
	e := newNode(t, "a", `r1 reachable(@S,D) :- link(@S,D).`, false)
	// A tuple located at b does not fire rules at a (it would never be
	// stored at a in a real run, but the engine must still not fire).
	e.InsertFact(data.NewTuple("link", data.Str("b"), data.Str("c")))
	e.RunToFixpoint()
	if n := e.Count("reachable"); n != 0 {
		t.Fatalf("reachable count = %d, want 0", n)
	}
}

func TestRemoteHeadBecomesExport(t *testing.T) {
	e := newNode(t, "a", `s linkD(@D,S) :- link(@S,D).`, false)
	e.InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b")))
	exports := e.RunToFixpoint()
	if len(exports) != 1 {
		t.Fatalf("exports = %v", exports)
	}
	if exports[0].Dest != "b" || exports[0].Tuple.String() != "linkD(b, a)" {
		t.Errorf("export = %+v", exports[0])
	}
	// The exported tuple is not stored locally.
	if e.Count("linkD") != 0 {
		t.Error("remote head must not be stored locally")
	}
}

func TestTransitiveClosureCluster(t *testing.T) {
	src := `
r1 reachable(@S,D) :- link(@S,D).
r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
`
	nodes := map[string]*Engine{}
	for _, n := range []string{"a", "b", "c"} {
		nodes[n] = newNode(t, n, src, false)
	}
	// The paper's example topology: link(a,b), link(a,c), link(b,c).
	nodes["a"].InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b")))
	nodes["a"].InsertFact(data.NewTuple("link", data.Str("a"), data.Str("c")))
	nodes["b"].InsertFact(data.NewTuple("link", data.Str("b"), data.Str("c")))
	runCluster(t, nodes)

	wantTuples(t, nodes["a"].Tuples("reachable"), "reachable(a, b)", "reachable(a, c)")
	wantTuples(t, nodes["b"].Tuples("reachable"), "reachable(b, c)")
	if nodes["c"].Count("reachable") != 0 {
		t.Error("c reaches nothing")
	}
}

func TestCyclicReachabilityTerminates(t *testing.T) {
	src := `
r1 reachable(@S,D) :- link(@S,D).
r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
`
	nodes := map[string]*Engine{}
	for _, n := range []string{"a", "b", "c"} {
		nodes[n] = newNode(t, n, src, false)
	}
	// A 3-cycle: a->b->c->a.
	nodes["a"].InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b")))
	nodes["b"].InsertFact(data.NewTuple("link", data.Str("b"), data.Str("c")))
	nodes["c"].InsertFact(data.NewTuple("link", data.Str("c"), data.Str("a")))
	runCluster(t, nodes)
	// Everyone reaches everyone (including themselves via the cycle).
	for _, n := range []string{"a", "b", "c"} {
		if got := nodes[n].Count("reachable"); got != 3 {
			t.Errorf("node %s reachable count = %d, want 3", n, got)
		}
	}
}

func TestAssignmentAndCondition(t *testing.T) {
	e := newNode(t, "a", `
r cost(@S,D,C2) :- link(@S,D,C), C2 = C * 2 + 1, C2 < 10.
`, false)
	e.InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b"), data.Int(3)))
	e.InsertFact(data.NewTuple("link", data.Str("a"), data.Str("c"), data.Int(7)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("cost"), "cost(a, b, 7)")
}

func TestBuiltinListFunctions(t *testing.T) {
	e := newNode(t, "a", `
r p(@S,D,P,N) :- link(@S,D), P = f_concat(S, f_init(D, D)), N = f_size(P), f_member(P, S) == 1.
`, false)
	e.InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b")))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("p"), "p(a, b, [a,b,b], 3)")
}

func TestJoinTwoAtoms(t *testing.T) {
	e := newNode(t, "a", `r tri(@S,B,C) :- edge(@S,B), edge2(@S,C), B != C.`, false)
	e.InsertFact(data.NewTuple("edge", data.Str("a"), data.Str("x")))
	e.InsertFact(data.NewTuple("edge2", data.Str("a"), data.Str("x")))
	e.InsertFact(data.NewTuple("edge2", data.Str("a"), data.Str("y")))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("tri"), "tri(a, x, y)")
}

func TestSelfJoinSamePredicate(t *testing.T) {
	e := newNode(t, "a", `r two(@S,X,Y) :- p(@S,X), p(@S,Y), X < Y.`, false)
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(1)))
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(2)))
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(3)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("two"), "two(a, 1, 2)", "two(a, 1, 3)", "two(a, 2, 3)")
}

func TestMinAggregate(t *testing.T) {
	e := newNode(t, "a", `sp spCost(@S,D,min<C>) :- path(@S,D,C).`, false)
	e.InsertFact(data.NewTuple("path", data.Str("a"), data.Str("b"), data.Int(5)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("spCost"), "spCost(a, b, 5)")
	// A better path replaces the aggregate row.
	e.InsertFact(data.NewTuple("path", data.Str("a"), data.Str("b"), data.Int(2)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("spCost"), "spCost(a, b, 2)")
	// A worse path changes nothing.
	e.InsertFact(data.NewTuple("path", data.Str("a"), data.Str("b"), data.Int(9)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("spCost"), "spCost(a, b, 2)")
	// Different group aggregates separately.
	e.InsertFact(data.NewTuple("path", data.Str("a"), data.Str("c"), data.Int(7)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("spCost"), "spCost(a, b, 2)", "spCost(a, c, 7)")
}

func TestCountAggregateDedup(t *testing.T) {
	e := newNode(t, "a", `c total(@S,count<*>) :- p(@S,X).`, false)
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(1)))
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(2)))
	// Duplicate insert must not double count.
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(2)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("total"), "total(a, 2)")
}

func TestSumAndMaxAggregates(t *testing.T) {
	e := newNode(t, "a", `
s1 totalCost(@S,sum<C>) :- q(@S,D,C).
s2 maxCost(@S,max<C>) :- q(@S,D,C).
`, false)
	e.InsertFact(data.NewTuple("q", data.Str("a"), data.Str("x"), data.Int(3)))
	e.InsertFact(data.NewTuple("q", data.Str("a"), data.Str("y"), data.Int(5)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("totalCost"), "totalCost(a, 8)")
	wantTuples(t, e.Tuples("maxCost"), "maxCost(a, 5)")
}

func TestAggregateSelectionPrunes(t *testing.T) {
	e := newNode(t, "a", `
aggSelection(path, keys(1,2), min, 3).
r p2(@S,D,C) :- path(@S,D,C).
`, false)
	e.InsertFact(data.NewTuple("path", data.Str("a"), data.Str("b"), data.Int(5)))
	e.RunToFixpoint()
	// Worse tuple dropped entirely.
	e.InsertFact(data.NewTuple("path", data.Str("a"), data.Str("b"), data.Int(9)))
	e.RunToFixpoint()
	if e.Stats.TuplesDropped != 1 {
		t.Errorf("dropped = %d, want 1", e.Stats.TuplesDropped)
	}
	if got := len(e.Tuples("path")); got != 1 {
		t.Errorf("path count = %d, want 1", got)
	}
	// Better tuple accepted.
	e.InsertFact(data.NewTuple("path", data.Str("a"), data.Str("b"), data.Int(2)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("p2"), "p2(a, b, 2)", "p2(a, b, 5)")
}

func TestKeyedTableReplacement(t *testing.T) {
	e := newNode(t, "a", `
materialize(route, infinity, infinity, keys(1,2)).
`, false)
	e.InsertFact(data.NewTuple("route", data.Str("a"), data.Str("b"), data.Int(1)))
	e.RunToFixpoint()
	e.InsertFact(data.NewTuple("route", data.Str("a"), data.Str("b"), data.Int(2)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("route"), "route(a, b, 2)")
}

func TestSoftStateExpiry(t *testing.T) {
	e := newNode(t, "a", `
materialize(event, 10, infinity, keys(1,2)).
`, false)
	e.now = 0
	e.InsertFact(data.NewTuple("event", data.Str("a"), data.Int(1)))
	e.now = 5
	e.InsertFact(data.NewTuple("event", data.Str("a"), data.Int(2)))
	e.RunToFixpoint()
	if e.Count("event") != 2 {
		t.Fatal("both events live at t=5")
	}
	e.Expire(12) // first event (created 0, ttl 10) dies
	if got := len(e.Tuples("event")); got != 1 {
		t.Fatalf("event count after expiry = %d, want 1", got)
	}
	e.Expire(20)
	if e.Count("event") != 0 {
		t.Fatal("all events expired")
	}
}

func TestSlidingWindowCount(t *testing.T) {
	// The diagnostics pattern of §3: count route changes over the past T
	// seconds; the count shrinks as events age out.
	e := newNode(t, "a", `
materialize(change, 10, infinity, keys(1,2)).
c changes(@S,count<*>) :- change(@S,X).
`, false)
	e.now = 0
	e.InsertFact(data.NewTuple("change", data.Str("a"), data.Int(1)))
	e.InsertFact(data.NewTuple("change", data.Str("a"), data.Int(2)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("changes"), "changes(a, 2)")
	e.now = 5
	e.InsertFact(data.NewTuple("change", data.Str("a"), data.Int(3)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("changes"), "changes(a, 3)")
	// At t=12 the first two changes expired; the window count drops to 1.
	e.Expire(12)
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("changes"), "changes(a, 1)")
	// At t=20 everything expired: the aggregate row disappears.
	e.Expire(20)
	e.RunToFixpoint()
	if e.Count("changes") != 0 {
		t.Fatalf("changes = %v", tupleStrings(e.Tuples("changes")))
	}
}

// TestExpireRecountMatchesFresh holds Expire's group-bound recount to an
// oracle without one: after every expiry and every batch of inserts,
// windowed aggregates of the diagnostics shape (Example_diagnostics'
// c1) equal a fresh engine's over the facts still unexpired. Events
// arrive at a varying rate, some are re-inserted (which restarts their
// TTL), and the window empties twice, so groups shrink, vanish and
// come back. c4's group column comes from the hard-state label atom,
// so an expiring change touches every group of the rule: the
// all-groups recount.
func TestExpireRecountMatchesFresh(t *testing.T) {
	const prog = `
materialize(change, 10, infinity, keys(1,2,3)).
c1 changes(@S,count<*>) :- change(@S,E,K).
c2 byKind(@S,K,count<*>) :- change(@S,E,K).
c3 last(@S,K,max<E>) :- change(@S,E,K).
c4 byLabel(@S,L,count<*>) :- change(@S,E,K), label(@S,K,L).
`
	aggs := []string{"changes", "byKind", "last", "byLabel"}
	labels := []data.Tuple{
		data.NewTuple("label", data.Str("a"), data.Str("k0"), data.Str("x")),
		data.NewTuple("label", data.Str("a"), data.Str("k1"), data.Str("x")),
		data.NewTuple("label", data.Str("a"), data.Str("k2"), data.Str("y")),
	}
	e := newNode(t, "a", prog, false)
	for _, l := range labels {
		e.InsertFact(l)
	}
	created := map[string]float64{} // every change fact inserted, by key
	facts := map[string]data.Tuple{}
	check := func(now int, when string) {
		t.Helper()
		fresh := newNode(t, "a", prog, false)
		fresh.Expire(float64(now))
		for _, l := range labels {
			fresh.InsertFact(l)
		}
		keys := make([]string, 0, len(facts))
		for k := range facts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if float64(now) < created[k]+10 {
				fresh.InsertFact(facts[k])
			}
		}
		fresh.RunToFixpoint()
		for _, pred := range aggs {
			got, want := strings.Join(tupleStrings(e.Tuples(pred)), " "), strings.Join(tupleStrings(fresh.Tuples(pred)), " ")
			if got != want {
				t.Fatalf("t=%d %s: %s = [%s], a fresh engine on the unexpired facts has [%s]", now, when, pred, got, want)
			}
		}
	}
	for now := 0; now < 60; now++ {
		e.Expire(float64(now))
		e.RunToFixpoint()
		check(now, "after expiry")
		if now%20 >= 14 {
			continue // a quiet spell: the window empties
		}
		for i := 0; i < (now*7)%4; i++ {
			ev := (now*5 + i*3) % 23 // a repeat re-inserts an event, restarting its TTL
			f := data.NewTuple("change", data.Str("a"), data.Int(int64(ev)), data.Str(fmt.Sprint("k", ev%3)))
			e.InsertFact(f)
			created[f.Key()], facts[f.Key()] = float64(now), f
		}
		e.RunToFixpoint()
		check(now, "after inserts")
	}
}

func TestTTLRefreshOnReinsert(t *testing.T) {
	e := newNode(t, "a", `materialize(hb, 10, infinity, keys(1)).`, false)
	e.now = 0
	e.InsertFact(data.NewTuple("hb", data.Str("a")))
	e.now = 8
	e.InsertFact(data.NewTuple("hb", data.Str("a"))) // refresh
	e.Expire(15)                                     // would expire original, not refreshed
	if e.Count("hb") != 1 {
		t.Fatal("refreshed soft state must survive")
	}
	e.Expire(19)
	if e.Count("hb") != 0 {
		t.Fatal("refreshed soft state expires at 18")
	}
}

func TestMaxSizeEviction(t *testing.T) {
	e := newNode(t, "a", `materialize(log, infinity, 2, keys(1,2)).`, false)
	var left []string
	e.onUpdate = func(tu data.Tuple, kind UpdateKind) {
		if kind.Left() {
			left = append(left, kind.String()+" "+tu.String())
		}
	}
	for i := 0; i < 4; i++ {
		e.InsertFact(data.NewTuple("log", data.Str("a"), data.Int(int64(i))))
	}
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("log"), "log(a, 2)", "log(a, 3)")
	// Evicted rows are reported, oldest first, as soft state's death.
	if got := strings.Join(left, "; "); got != "expired log(a, 0); expired log(a, 1)" {
		t.Errorf("removals reported: %q", got)
	}
}

// TestEvictionRelaxesPruneGroup: a size bound that evicts a group's
// installed optimum relaxes the group as an expiry does, so the
// candidate the prune shadowed behind it competes again.
func TestEvictionRelaxesPruneGroup(t *testing.T) {
	e := newNode(t, "n", `
materialize(cost, infinity, 2, keys(1,2,3)).
aggSelection(cost, keys(1,2), min, 3).
`, false)
	for _, r := range []struct {
		y string
		c int64
	}{{"y", 1}, {"y", 5}, {"z", 1}, {"w", 1}} { // cost(n,y,5) is shadowed; cost(n,w,1) evicts cost(n,y,1)
		e.InsertFact(data.NewTuple("cost", data.Str("n"), data.Str(r.y), data.Int(r.c)))
	}
	e.RunToFixpoint()
	// The revived cost(n,y,5) in turn evicts cost(n,z,1).
	wantTuples(t, e.Tuples("cost"), "cost(n, w, 1)", "cost(n, y, 5)")
}

func TestSeNDlogSaysMatching(t *testing.T) {
	src := `
At S:
  s1 reachable(S,D) :- link(S,D).
  s2 linkD(D,S)@D :- link(S,D).
  s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).
`
	nodes := map[string]*Engine{}
	for _, n := range []string{"a", "b", "c"} {
		nodes[n] = newNode(t, n, src, true)
	}
	nodes["a"].InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b")))
	nodes["a"].InsertFact(data.NewTuple("link", data.Str("a"), data.Str("c")))
	nodes["b"].InsertFact(data.NewTuple("link", data.Str("b"), data.Str("c")))
	runCluster(t, nodes)

	// Node a derives reachable(a,b) and reachable(a,c) itself (rule s1),
	// and additionally imports reachable(a,c) derived at b via rule s3 and
	// asserted ("says") by b — the same fact under a different principal.
	wantTuples(t, nodes["a"].Tuples("reachable"),
		"a says reachable(a, b)", "a says reachable(a, c)", "b says reachable(a, c)")
	wantTuples(t, nodes["b"].Tuples("reachable"), "b says reachable(b, c)")
}

func TestSaysAtomRejectsLocalTuples(t *testing.T) {
	// An atom "W says p(...)" must not match unattributed tuples.
	e := newNode(t, "a", `At S: r q(S,W) :- W says p(S).`, false)
	e.InsertFact(data.NewTuple("p", data.Str("a"))) // no asserter
	e.RunToFixpoint()
	if e.Count("q") != 0 {
		t.Fatal("says atom matched an unattributed tuple")
	}
	// An attributed tuple matches and binds W.
	e.InsertFact(data.NewTuple("p", data.Str("a")).Says("mallory"))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("q"), "q(a, mallory)")
}

func TestLocalAtomRejectsForeignAssertions(t *testing.T) {
	e := newNode(t, "a", `At S: r q(S) :- p(S).`, true)
	e.InsertFact(data.NewTuple("p", data.Str("a")).Says("mallory"))
	e.RunToFixpoint()
	if e.Count("q") != 0 {
		t.Fatal("local atom matched a foreign assertion")
	}
	e.InsertFact(data.NewTuple("p", data.Str("a"))) // asserted by self
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("q"), "a says q(a)")
}

func TestConstantContextRestrictsRule(t *testing.T) {
	src := `At alice: r q(D)@D :- p(D).`
	a := newNode(t, "alice", src, true)
	b := newNode(t, "bob", src, true)
	a.InsertFact(data.NewTuple("p", data.Str("bob")))
	b.InsertFact(data.NewTuple("p", data.Str("alice")))
	ea := a.RunToFixpoint()
	eb := b.RunToFixpoint()
	if len(ea) != 1 || ea[0].Dest != "bob" {
		t.Errorf("alice exports = %v", ea)
	}
	if len(eb) != 0 {
		t.Errorf("bob must not run alice's rule: %v", eb)
	}
}

func TestBestPathProgram(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3,4)).
materialize(bestPath, infinity, infinity, keys(1,2)).
aggSelection(path, keys(1,2), min, 5).

sp1 path(@S,D,D,P,C) :- link(@S,D,C), P = f_init(S,D).
sp2 path(@S,D,Z,P,C) :- link(@S,Z,C1), path(@Z,D,W,P2,C2), C = C1 + C2,
    f_member(P2,S) == 0, P = f_concat(S,P2).
sp3 spCost(@S,D,min<C>) :- path(@S,D,Z,P,C).
sp4 bestPath(@S,D,P,C) :- spCost(@S,D,C), path(@S,D,Z,P,C).
`
	nodes := map[string]*Engine{}
	for _, n := range []string{"a", "b", "c"} {
		nodes[n] = newNode(t, n, src, false)
	}
	// a->b cost 1, b->c cost 1, a->c cost 5: best a->c goes via b.
	nodes["a"].InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b"), data.Int(1)))
	nodes["b"].InsertFact(data.NewTuple("link", data.Str("b"), data.Str("c"), data.Int(1)))
	nodes["a"].InsertFact(data.NewTuple("link", data.Str("a"), data.Str("c"), data.Int(5)))
	runCluster(t, nodes)

	got := nodes["a"].Tuples("bestPath")
	found := false
	for _, bp := range got {
		if bp.Args[1].Str == "c" {
			found = true
			if bp.Args[3].AsInt() != 2 {
				t.Errorf("best a->c cost = %v, want 2 (%v)", bp.Args[3], bp)
			}
			if !bp.Args[2].Equal(data.Strings("a", "b", "c")) {
				t.Errorf("best a->c path = %v, want [a,b,c]", bp.Args[2])
			}
		}
	}
	if !found {
		t.Fatalf("no bestPath(a,c): %v", tupleStrings(got))
	}
}

// aggProvHook records Derive calls so aggregate provenance semantics can
// be asserted: min/max heads derive from the witnessing contribution,
// count/sum heads from every contribution.
type aggProvHook struct {
	NoProv
	derives map[string][]string // head string -> body tuple strings
}

func (h *aggProvHook) Derive(rule, node string, head data.Tuple, body []AnnTuple) Annotation {
	var bs []string
	for _, b := range body {
		bs = append(bs, b.Tuple.String())
	}
	h.derives[head.String()] = bs
	return nil
}

func TestAggregateProvenanceSemantics(t *testing.T) {
	hook := &aggProvHook{derives: map[string][]string{}}
	prog := datalog.MustParse(`
m minCost(@S,min<C>) :- q(@S,D,C).
c total(@S,count<*>) :- q(@S,D,C).
`)
	e := New(Config{Self: "a", Hook: hook})
	if err := e.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	e.InsertFact(data.NewTuple("q", data.Str("a"), data.Str("x"), data.Int(5)))
	e.InsertFact(data.NewTuple("q", data.Str("a"), data.Str("y"), data.Int(3)))
	e.RunToFixpoint()
	// min head derives from the single witnessing tuple (cost 3).
	mb := hook.derives["minCost(a, 3)"]
	if len(mb) != 1 || mb[0] != "q(a, y, 3)" {
		t.Errorf("min provenance = %v, want the witness q(a,y,3)", mb)
	}
	// count head derives from every contribution.
	cb := hook.derives["total(a, 2)"]
	if len(cb) != 2 {
		t.Errorf("count provenance = %v, want both contributions", cb)
	}
}

func TestLoadRejectsNonLocalizedProgram(t *testing.T) {
	prog := datalog.MustParse(`r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).`)
	e := New(Config{Self: "a"})
	if err := e.LoadProgram(prog); err == nil {
		t.Fatal("expected rejection of non-localized rule")
	}
}

func TestDuplicateInsertNoRequeue(t *testing.T) {
	e := newNode(t, "a", `r1 reachable(@S,D) :- link(@S,D).`, false)
	e.InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b")))
	e.RunToFixpoint()
	d1 := e.Stats.Derivations
	e.InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b")))
	e.RunToFixpoint()
	if e.Stats.Derivations != d1 {
		t.Errorf("duplicate insert re-fired rules: %d -> %d", d1, e.Stats.Derivations)
	}
}

func TestAnnotationOfAndPredicates(t *testing.T) {
	e := newNode(t, "a", `r1 reachable(@S,D) :- link(@S,D).`, false)
	tu := data.NewTuple("link", data.Str("a"), data.Str("b"))
	e.InsertFact(tu)
	e.RunToFixpoint()
	if e.AnnotationOf(tu) != nil {
		t.Error("NoProv annotation should be nil")
	}
	preds := e.Predicates()
	if len(preds) != 2 || preds[0] != "link" || preds[1] != "reachable" {
		t.Errorf("Predicates = %v", preds)
	}
}

func TestExpressionDivisionByZeroKillsBranch(t *testing.T) {
	e := newNode(t, "a", `r q(@S,C) :- p(@S,X), C = 10 / X.`, false)
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(0)))
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(2)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("q"), "q(a, 5)")
}

// TestInsertImportedBatch checks the import path a received frame takes:
// its tuples, annotations decoded up front, are all queued before the
// next semi-naive pass, which derives exactly what per-tuple imports
// would.
func TestInsertImportedBatch(t *testing.T) {
	e := newNode(t, "a", `r1 reachable(@S,D) :- link(@S,D).`, false)
	batch := []data.Tuple{
		data.NewTuple("link", data.Str("a"), data.Str("b")),
		data.NewTuple("link", data.Str("a"), data.Str("c")),
		data.NewTuple("link", data.Str("a"), data.Str("b")), // duplicate
	}
	for _, tu := range batch {
		e.InsertImportedAnnFrom("b", tu, nil)
	}
	if !e.Pending() {
		t.Fatal("batch must queue work")
	}
	if exports := e.RunToFixpoint(); len(exports) != 0 {
		t.Fatalf("unexpected exports %v", exports)
	}
	wantTuples(t, e.Tuples("reachable"),
		"reachable(a, b)", "reachable(a, c)")
}

// TestLookupAndLiveCounts pins the view-facing accessors: Lookup answers
// with the stored row's own tuple, its annotation and liveness in one
// probe, and Count / Predicates / Lookup all stop seeing a soft-state row
// the moment the clock passes its expiry, swept or not.
func TestLookupAndLiveCounts(t *testing.T) {
	e := newNode(t, "a", `materialize(event, 10, infinity, keys(1,2)).`, false)
	stored := data.NewTuple("event", data.Str("a"), data.Int(2))
	e.InsertFact(stored)
	e.InsertFact(data.NewTuple("fact", data.Str("a")))
	e.RunToFixpoint()

	// Float 2.0 is Equal to the stored Int 2: same row, stored form back.
	got, _, live := e.Lookup(data.NewTuple("event", data.Str("a"), data.Float(2)))
	if !live || got.Args[1].Kind != data.KindInt || &got.Args[0] != &stored.Args[0] {
		t.Errorf("Lookup(float form) = %v live=%v, want the stored int row", got, live)
	}
	if _, _, live := e.Lookup(data.NewTuple("event", data.Str("a"), data.Int(3))); live {
		t.Error("Lookup found a row that was never stored")
	}
	if _, _, live := e.Lookup(data.NewTuple("nosuch", data.Int(1))); live {
		t.Error("Lookup found a row in a table that does not exist")
	}
	if e.Count("event") != 1 || fmt.Sprint(e.Predicates()) != "[event fact]" {
		t.Errorf("Count = %d, Predicates = %v", e.Count("event"), e.Predicates())
	}

	e.now = 10 // expired, not yet swept
	if _, _, live := e.Lookup(stored); live {
		t.Error("Lookup sees an expired row")
	}
	if e.Count("event") != 0 || fmt.Sprint(e.Predicates()) != "[fact]" {
		t.Errorf("after expiry: Count = %d, Predicates = %v", e.Count("event"), e.Predicates())
	}
}

// TestOnUpdateReportsStoredTuple pins the observer contract patched views
// rest on: whatever Equal form a caller retracts or re-derives a row
// under, OnUpdate names the row by the tuple the table holds.
func TestOnUpdateReportsStoredTuple(t *testing.T) {
	var seen []string
	e := newNode(t, "a", "", false)
	e.onUpdate = func(tu data.Tuple, kind UpdateKind) {
		seen = append(seen, fmt.Sprintf("%s %s/%s", kind, tu, tu.Args[1].Kind))
	}
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(2)))
	e.RunToFixpoint()
	e.RetractFacts(data.NewTuple("p", data.Str("a"), data.Float(2)))
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Float(2)))
	e.RunToFixpoint()
	want := []string{"added p(a, 2)/int", "retracted p(a, 2)/int", "added p(a, 2)/float"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("updates = %q, want %q", seen, want)
	}
}
