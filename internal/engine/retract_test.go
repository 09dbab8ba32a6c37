package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"provnet/internal/data"
	"provnet/internal/datalog"
)

func retractEngine(t *testing.T, self, src string) *Engine {
	t.Helper()
	return cappedEngine(t, self, src, 0)
}

// cappedEngine builds an engine with an explicit prune-shadow cap (0
// keeps defaultShadowCap).
func cappedEngine(t testing.TB, self, src string, shadowCap int) *Engine {
	t.Helper()
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	localized, err := datalog.Localize(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Self: self})
	if err := e.LoadProgram(localized); err != nil {
		t.Fatal(err)
	}
	if shadowCap != 0 {
		for _, ps := range e.prunes {
			ps.cap = shadowCap
		}
	}
	return e
}

// snapshotEngine renders every live tuple of an engine, sorted.
func snapshotEngine(e *Engine) string {
	var b strings.Builder
	for _, pred := range e.Predicates() {
		for _, tu := range e.Tuples(pred) {
			fmt.Fprintf(&b, "%s\n", tu)
		}
	}
	return b.String()
}

const reachProg = `
materialize(edge, infinity, infinity, keys(1,2,3)).
materialize(reach, infinity, infinity, keys(1,2,3)).
r1 reach(@N,X,Y) :- edge(@N,X,Y).
r2 reach(@N,X,Y) :- edge(@N,X,Z), reach(@N,Z,Y).
`

func TestRetractCascadesAndRederives(t *testing.T) {
	e := retractEngine(t, "n", reachProg)
	edge := func(x, y string) data.Tuple {
		return data.NewTuple("edge", data.Str("n"), data.Str(x), data.Str(y))
	}
	for _, ed := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}} {
		e.InsertFact(edge(ed[0], ed[1]))
	}
	e.RunToFixpoint()
	if got := e.Count("reach"); got != 3 {
		t.Fatalf("reach count = %d, want 3", got)
	}

	// Cutting a→b withdraws reach(a,b); reach(a,c) survives via the
	// direct edge (DRed re-derivation finds the alternate support).
	ws := e.RetractFacts(edge("a", "b"))
	if len(ws) != 0 {
		t.Fatalf("unexpected withdrawals on single-node retraction: %v", ws)
	}
	e.RunToFixpoint()
	reach := func(x, y string) data.Tuple {
		return data.NewTuple("reach", data.Str("n"), data.Str(x), data.Str(y))
	}
	if e.Has(reach("a", "b")) {
		t.Fatal("reach(a,b) should be withdrawn after cutting edge(a,b)")
	}
	if !e.Has(reach("a", "c")) {
		t.Fatal("reach(a,c) should survive: the direct edge still derives it")
	}
	if !e.Has(reach("b", "c")) {
		t.Fatal("reach(b,c) should be untouched")
	}

	// Cutting a→c now removes the last derivation of reach(a,c).
	e.RetractFacts(edge("a", "c"))
	e.RunToFixpoint()
	if e.Has(reach("a", "c")) {
		t.Fatal("reach(a,c) should be withdrawn after both supports are cut")
	}
	if e.Stats.Retracted == 0 {
		t.Fatal("Stats.Retracted not counted")
	}
}

const minProg = `
materialize(e, infinity, infinity, keys(1,2,3)).
materialize(m, infinity, infinity, keys(1,2)).
aggSelection(e, keys(1,2), min, 3).
m1 m(@N,X,min<C>) :- e(@N,X,C).
`

func TestRetractRevivesPrunedCandidatesAndRecomputesAggregates(t *testing.T) {
	e := retractEngine(t, "n", minProg)
	ev := func(c int64) data.Tuple {
		return data.NewTuple("e", data.Str("n"), data.Str("x"), data.Int(c))
	}
	m := func(c int64) data.Tuple {
		return data.NewTuple("m", data.Str("n"), data.Str("x"), data.Int(c))
	}
	e.InsertFact(ev(5))
	e.InsertFact(ev(3))
	e.InsertFact(ev(7)) // pruned: worse than the installed min 3
	e.RunToFixpoint()
	if !e.Has(m(3)) {
		t.Fatalf("m = %v, want m(n,x,3)", e.Tuples("m"))
	}
	if e.Stats.TuplesDropped == 0 {
		t.Fatal("expected the 7-candidate to be pruned")
	}

	// Retracting the installed min relaxes the group: the surviving row 5
	// wins; the shadowed 7 stays shadowed (still worse than 5).
	e.RetractFacts(ev(3))
	e.RunToFixpoint()
	if !e.Has(m(5)) {
		t.Fatalf("after retracting 3: m = %v, want m(n,x,5)", e.Tuples("m"))
	}

	// Retracting 5 leaves only the shadow candidate, which must revive.
	e.RetractFacts(ev(5))
	e.RunToFixpoint()
	if !e.Has(m(7)) {
		t.Fatalf("after retracting 5: m = %v, want m(n,x,7) revived from shadow", e.Tuples("m"))
	}

	// Retracting the last support deletes the aggregate head entirely.
	e.RetractFacts(ev(7))
	e.RunToFixpoint()
	if got := e.Count("m"); got != 0 {
		t.Fatalf("after retracting all: m = %v, want empty", e.Tuples("m"))
	}
}

const exportProg = `
materialize(src, infinity, infinity, keys(1,2,3)).
materialize(out, infinity, infinity, keys(1,2)).
x1 out(@D,X) :- src(@S,D,X).
`

func TestRetractCollectsWithdrawalsForExports(t *testing.T) {
	e := retractEngine(t, "a", exportProg)
	src := data.NewTuple("src", data.Str("a"), data.Str("b"), data.Int(1))
	e.InsertFact(src)
	exports := e.RunToFixpoint()
	if len(exports) != 1 || exports[0].Dest != "b" {
		t.Fatalf("exports = %v, want one export to b", exports)
	}
	ws := e.RetractFacts(src)
	if len(ws) != 1 || ws[0].Dest != "b" || ws[0].Tuple.Pred != "out" {
		t.Fatalf("withdrawals = %v, want out(b,1) → b", ws)
	}
}

func TestRetractImportedRespectsMultipleOrigins(t *testing.T) {
	e := retractEngine(t, "b", exportProg)
	tu := data.NewTuple("out", data.Str("b"), data.Int(1))
	if err := e.InsertImportedFrom("a", tu, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertImportedFrom("c", tu, nil); err != nil {
		t.Fatal(err)
	}
	e.RunToFixpoint()
	e.RetractInbound([]InboundRetraction{{From: "a", Tuple: tu}})
	if !e.Has(tu) {
		t.Fatal("tuple should survive: sender c still supports it")
	}
	e.RetractInbound([]InboundRetraction{{From: "c", Tuple: tu}})
	if e.Has(tu) {
		t.Fatal("tuple should be withdrawn once every origin retracted it")
	}
}

// TestShadowRevivalKeepsEverySupport: a candidate rejected three times
// while a better one is installed — once as a local derivation, once
// each from two remote senders — sits in the shadow as one row with all
// three supports. Revival must store it with all three, so that
// withdrawing them one at a time removes the row only at the last.
func TestShadowRevivalKeepsEverySupport(t *testing.T) {
	e := retractEngine(t, "n", `
materialize(src, infinity, infinity, keys(1,2,3)).
materialize(e, infinity, infinity, keys(1,2,3)).
materialize(m, infinity, infinity, keys(1,2)).
aggSelection(e, keys(1,2), min, 3).
d1 e(@N,X,C) :- src(@N,X,C).
m1 m(@N,X,min<C>) :- e(@N,X,C).
`)
	src := func(c int64) data.Tuple {
		return data.NewTuple("src", data.Str("n"), data.Str("x"), data.Int(c))
	}
	m7 := data.NewTuple("m", data.Str("n"), data.Str("x"), data.Int(7))
	e7 := data.NewTuple("e", data.Str("n"), data.Str("x"), data.Int(7))
	e.InsertFact(src(3))
	e.RunToFixpoint()
	e.InsertFact(src(7)) // derives e7 locally: rejected, 3 is installed
	for _, from := range []string{"a", "c"} {
		if err := e.InsertImportedFrom(from, e7, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.RunToFixpoint()
	if e.Has(e7) || e.ShadowSize() != 1 {
		t.Fatalf("e7 stored=%v shadow=%d, want one shadow row holding all three rejections", e.Has(e7), e.ShadowSize())
	}

	e.RetractFacts(src(3)) // the bar goes: e7 revives
	e.RunToFixpoint()
	if !e.Has(e7) || !e.Has(m7) || e.ShadowSize() != 0 {
		t.Fatalf("after retracting 3: e = %v m = %v shadow=%d, want e7 revived", e.Tuples("e"), e.Tuples("m"), e.ShadowSize())
	}

	withdraw := []struct {
		what string
		do   func()
	}{
		{"sender a", func() { e.RetractInbound([]InboundRetraction{{From: "a", Tuple: e7}}) }},
		{"the local derivation", func() { e.RetractFacts(src(7)) }},
		{"sender c", func() { e.RetractInbound([]InboundRetraction{{From: "c", Tuple: e7}}) }},
	}
	for i, w := range withdraw {
		w.do()
		e.RunToFixpoint()
		if last := i == len(withdraw)-1; e.Has(e7) == last || e.Has(m7) == last {
			t.Fatalf("after withdrawing %s: e7 stored=%v m7 stored=%v, want both %v", w.what, e.Has(e7), e.Has(m7), !last)
		}
	}
}

func TestRetractObserverSeesWithdrawals(t *testing.T) {
	e := retractEngine(t, "n", reachProg)
	var added, removed int
	e.onUpdate = func(tu data.Tuple, kind UpdateKind) {
		switch {
		case kind.Entered():
			added++
		case kind.Left():
			removed++
		}
	}
	edge := data.NewTuple("edge", data.Str("n"), data.Str("a"), data.Str("b"))
	e.InsertFact(edge)
	e.RunToFixpoint()
	if added != 2 { // edge + reach
		t.Fatalf("added = %d, want 2", added)
	}
	e.RetractFacts(edge)
	if removed != 2 {
		t.Fatalf("removed = %d, want 2 (edge + reach)", removed)
	}
}

// TestRederiveReshipsAlternateExport: node n derives out(m,1), which
// lives at m, two ways. Retracting one body fact over-deletes the export,
// so n ships m a withdrawal; the re-derivation must then find the other
// derivation and ship the export again, or m loses a tuple n still
// derives.
func TestRederiveReshipsAlternateExport(t *testing.T) {
	const prog = `
materialize(a, infinity, infinity, keys(1,2,3)).
materialize(b, infinity, infinity, keys(1,2,3)).
materialize(out, infinity, infinity, keys(1,2)).
x1 out(@D,X) :- a(@S,D,X).
x2 out(@D,X) :- b(@S,D,X).
`
	n, m := retractEngine(t, "n", prog), retractEngine(t, "m", prog)
	a := data.NewTuple("a", data.Str("n"), data.Str("m"), data.Int(1))
	b := data.NewTuple("b", data.Str("n"), data.Str("m"), data.Int(1))
	out := data.NewTuple("out", data.Str("m"), data.Int(1))
	deliver := func(exports []Export) {
		t.Helper()
		for _, ex := range exports {
			if ex.Dest != "m" || !ex.Tuple.Equal(out) {
				t.Fatalf("export %s → %s, want %s → m", ex.Tuple, ex.Dest, out)
			}
			if err := m.InsertImportedFrom("n", ex.Tuple, nil); err != nil {
				t.Fatal(err)
			}
		}
		m.RunToFixpoint()
	}
	n.InsertFact(a)
	n.InsertFact(b)
	deliver(n.RunToFixpoint())
	if !m.Has(out) {
		t.Fatal("out(m,1) never reached m")
	}

	ws := n.RetractFacts(a)
	if len(ws) != 1 || ws[0].Dest != "m" || !ws[0].Tuple.Equal(out) {
		t.Fatalf("withdrawals = %v, want the over-deleted out(m,1) → m", ws)
	}
	m.RetractInbound([]InboundRetraction{{From: "n", Tuple: out}})
	m.RunToFixpoint()
	reship := n.RunToFixpoint()
	if len(reship) != 1 {
		t.Fatalf("exports after the repair = %v, want out(m,1) → m once, re-derived through b", reship)
	}
	deliver(reship)
	if !m.Has(out) {
		t.Fatal("out(m,1) lost at m although n still derives it from b")
	}
}

// FuzzRetractMatchesFresh holds retraction to an oracle that involves no
// DRed: a script of fact inserts and retractions, each followed by a
// fixpoint, must leave a single-node engine with the tables a fresh
// engine derives from the facts that survive. The programs cover
// recursion (reachProg); aggregate selection feeding a min aggregate,
// with the default shadow cap or a cap of 1 (so the lossy-shadow
// fallback runs); a head with a constant argument and a variable an
// assignment binds, which re-derivation checks instead of binding;
// the two aggregate repairs that recount every group of a rule instead
// of the touched ones: a group column bound only by a second atom, and a
// keyed body table whose rows a new value replaces (a stale rule; the
// script's last step retracts a sentinel row, so the final state has
// been through a repair); and an aggregate-selected predicate derived
// through a join (joinPrunedProg), whose seed evicts under cap 1, so the
// lossy-shadow fallback re-derives a group through a multi-atom
// group-bound plan.
//
// A row a changed aggregate replaces under its primary key is not
// retracted: its consequences are replaced in turn only where they are
// keyed the same way, as Best-Path's bestPath is on spCost. The
// aggregate program is written that way, so a fresh run is its oracle.
func FuzzRetractMatchesFresh(f *testing.F) {
	cases := []struct {
		prog string
		fact func(x, y, c byte) data.Tuple
		// pruned is the aggregate-selected predicate, left out of the
		// comparison: which of its candidates are stored depends on the
		// order they arrived in, and only its optimum is determined.
		pruned string
		// key names a fact's row in the surviving set: its primary key
		// where an insert replaces a row (nil: the whole tuple).
		key func(data.Tuple) string
		// sentinel, when set, is inserted before the script and retracted
		// after it.
		sentinel data.Tuple
	}{
		{
			prog: reachProg,
			fact: func(x, y, _ byte) data.Tuple {
				return data.NewTuple("edge", data.Str("n"), data.Str(fmt.Sprint("v", x%4)), data.Str(fmt.Sprint("v", y%4)))
			},
		},
		{
			prog: `
materialize(src, infinity, infinity, keys(1,2,3,4)).
materialize(e, infinity, infinity, keys(1,2,3)).
materialize(m, infinity, infinity, keys(1,2)).
materialize(best, infinity, infinity, keys(1,2)).
aggSelection(e, keys(1,2), min, 3).
d1 e(@N,X,C) :- src(@N,X,K,C).
m1 m(@N,X,min<C>) :- e(@N,X,C).
b1 best(@N,X,C) :- m(@N,X,C), e(@N,X,C).
`,
			fact: func(x, y, c byte) data.Tuple {
				return data.NewTuple("src", data.Str("n"), data.Str(fmt.Sprint("x", x%2)), data.Int(int64(y%2)), data.Int(int64(c%4)))
			},
			pruned: "e",
		},
		{
			prog: `
materialize(w, infinity, infinity, keys(1,2,3,4)).
materialize(pc, infinity, infinity, keys(1,2,3,4)).
materialize(far, infinity, infinity, keys(1,2)).
p1 pc(@N,"one",X,C) :- w(@N,X,Y,C).
p2 pc(@N,"two",X,C) :- w(@N,X,Y,C1), w(@N,Y,Z,C2), C = C1 + C2.
p3 far(@N,X) :- pc(@N,K,X,C), C > 3.
`,
			fact: func(x, y, c byte) data.Tuple {
				return data.NewTuple("w", data.Str("n"), data.Str(fmt.Sprint("v", x%3)), data.Str(fmt.Sprint("v", y%3)), data.Int(int64(c%3)))
			},
		},
		{
			// Y comes from b: retracting an a row touches every group.
			prog: `
materialize(a, infinity, infinity, keys(1,2,3)).
materialize(b, infinity, infinity, keys(1,2,3)).
g1 g(@N,Y,min<C>) :- a(@N,X,C), b(@N,X,Y).
`,
			fact: func(x, y, c byte) data.Tuple {
				if c%2 == 0 {
					return data.NewTuple("a", data.Str("n"), data.Str(fmt.Sprint("x", x%3)), data.Int(int64(y%4)))
				}
				return data.NewTuple("b", data.Str("n"), data.Str(fmt.Sprint("x", x%3)), data.Str(fmt.Sprint("y", y%2)))
			},
		},
		{
			// kv is keyed on (N,K): inserting a new value for K replaces
			// the row without retracting it.
			prog: `
materialize(kv, infinity, infinity, keys(1,2)).
c1 cnt(@N,V,count<*>) :- kv(@N,K,V).
`,
			fact: func(x, y, _ byte) data.Tuple {
				return data.NewTuple("kv", data.Str("n"), data.Str(fmt.Sprint("k", x%3)), data.Int(int64(y%3)))
			},
			key:      func(tu data.Tuple) string { return tu.Args[1].Str },
			sentinel: data.NewTuple("kv", data.Str("n"), data.Str("sentinel"), data.Int(9)),
		},
		{prog: joinPrunedProg, fact: joinPrunedFact, pruned: "e"},
	}
	f.Add(byte(0), []byte{1, 0, 1, 0, 1, 1, 2, 0, 1, 2, 0, 0, 0, 0, 1, 0})
	f.Add(byte(1), []byte{1, 0, 0, 3, 1, 0, 1, 1, 1, 0, 0, 2, 0, 0, 0, 3, 0, 0, 1, 1})
	f.Add(byte(7), []byte{1, 0, 0, 3, 1, 0, 1, 1, 1, 0, 0, 2, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0})
	f.Add(byte(2), []byte{1, 0, 1, 1, 1, 1, 2, 2, 1, 0, 2, 2, 0, 1, 2, 2, 1, 1, 0, 1, 0, 0, 1, 1})
	f.Add(byte(3), []byte{1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1})
	f.Add(byte(4), []byte{1, 0, 1, 0, 1, 1, 1, 0, 1, 0, 2, 0, 0, 1, 1, 0, 1, 1, 2, 0, 1, 1, 0, 0})
	f.Add(byte(2*len(cases)-1), joinPrunedSeed)
	f.Fuzz(func(t *testing.T, which byte, ops []byte) {
		c := cases[int(which)%len(cases)]
		shadowCap := 0
		if int(which)/len(cases)%2 == 1 {
			shadowCap = 1
		}
		e := cappedEngine(t, "n", c.prog, shadowCap)
		key := data.Tuple.Key
		if c.key != nil {
			key = c.key
		}
		if c.sentinel.Pred != "" {
			e.InsertFact(c.sentinel)
			e.RunToFixpoint()
		}
		live := map[string]data.Tuple{}
		for i := 0; i+3 < len(ops); i += 4 {
			tu := c.fact(ops[i+1], ops[i+2], ops[i+3])
			if ops[i]%3 == 0 {
				e.RetractFacts(tu)
				if cur, ok := live[key(tu)]; ok && cur.Equal(tu) {
					delete(live, key(tu))
				}
			} else {
				e.InsertFact(tu)
				live[key(tu)] = tu
			}
			e.RunToFixpoint()
		}
		if c.sentinel.Pred != "" {
			e.RetractFacts(c.sentinel)
			e.RunToFixpoint()
		}
		fresh := cappedEngine(t, "n", c.prog, shadowCap)
		keys := make([]string, 0, len(live))
		for k := range live {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fresh.InsertFact(live[k])
		}
		fresh.RunToFixpoint()
		snapshot := func(e *Engine) string {
			var b strings.Builder
			for _, pred := range e.Predicates() {
				if pred == c.pruned {
					continue
				}
				for _, tu := range e.Tuples(pred) {
					fmt.Fprintf(&b, "%s\n", tu)
				}
			}
			return b.String()
		}
		if got, want := snapshot(e), snapshot(fresh); got != want {
			t.Fatalf("after the script:\n%s--- fresh engine on the surviving facts:\n%s", got, want)
		}
	})
}

// joinPrunedProg is FuzzRetractMatchesFresh's aggregate selection over a
// join: X comes from hop, so the group (N,X) binds src only on N.
const joinPrunedProg = `
materialize(src, infinity, infinity, keys(1,2,3)).
materialize(hop, infinity, infinity, keys(1,2,3,4)).
materialize(e, infinity, infinity, keys(1,2,3,4)).
materialize(m, infinity, infinity, keys(1,2)).
aggSelection(e, keys(1,2), min, 3).
d1 e(@N,X,C,Y) :- src(@N,Y,C1), hop(@N,Y,X,C2), C = C1 + C2.
m1 m(@N,X,min<C>) :- e(@N,X,C,Y).
`

func joinPrunedFact(x, y, c byte) data.Tuple {
	if c%2 == 0 {
		return data.NewTuple("src", data.Str("n"), data.Str(fmt.Sprint("y", y%3)), data.Int(int64(x%4)))
	}
	return data.NewTuple("hop", data.Str("n"), data.Str(fmt.Sprint("y", y%3)), data.Str(fmt.Sprint("x", x%2)), data.Int(int64(c%3)))
}

// joinPrunedSeed is FuzzRetractMatchesFresh's script for joinPrunedProg
// under cap 1: three candidates of group (n,x0), one of them evicted,
// then the two best retracted.
var joinPrunedSeed = []byte{
	1, 0, 0, 0, 1, 1, 1, 0, 1, 2, 2, 0, // src(n,y0,0), src(n,y1,1), src(n,y2,2)
	1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 2, 1, // hop(n,yi,x0,1) for i = 0..2
	0, 0, 0, 0, 0, 1, 1, 0, // retract src(n,y0,0), then src(n,y1,1)
}

// TestJoinPrunedSeedEvicts pins that joinPrunedSeed evicts from the
// bounded shadow, so FuzzRetractMatchesFresh's seed corpus runs the
// lossy-shadow fallback through a multi-atom group-bound plan.
func TestJoinPrunedSeedEvicts(t *testing.T) {
	e := cappedEngine(t, "n", joinPrunedProg, 1)
	for i := 0; i+3 < len(joinPrunedSeed); i += 4 {
		tu := joinPrunedFact(joinPrunedSeed[i+1], joinPrunedSeed[i+2], joinPrunedSeed[i+3])
		if joinPrunedSeed[i]%3 == 0 {
			e.RetractFacts(tu)
		} else {
			e.InsertFact(tu)
		}
		e.RunToFixpoint()
	}
	if e.ShadowEvictions() == 0 {
		t.Fatal("the seed evicted no shadow row: the lossy-shadow fallback did not run")
	}
}
