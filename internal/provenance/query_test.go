package provenance

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"provnet/internal/data"
)

// buildDistributedScenario wires stores for the paper's 3-node example
// with distributed provenance: reachable(a,c) derived at a via r1 and r2,
// where the r2 child reachable(b,c) was derived at b and shipped to a.
func buildDistributedScenario() (map[string]*Store, string) {
	stores := map[string]*Store{
		"a": NewStore("a"),
		"b": NewStore("b"),
	}
	linkAB := data.NewTuple("link", data.Str("a"), data.Str("b")).Says("a")
	linkAC := data.NewTuple("link", data.Str("a"), data.Str("c")).Says("a")
	linkBC := data.NewTuple("link", data.Str("b"), data.Str("c")).Says("b")
	reachBCb := data.NewTuple("reachable", data.Str("b"), data.Str("c")).Says("b")
	reachAC := data.NewTuple("reachable", data.Str("a"), data.Str("c")).Says("a")

	stores["a"].RecordBase(linkAB, 0)
	stores["a"].RecordBase(linkAC, 0)
	stores["b"].RecordBase(linkBC, 0)
	// b derives reachable(b,c) locally.
	stores["b"].RecordDeriv(reachBCb, "s1", []Ref{{Node: "b", Key: KeyOf(linkBC)}}, 1)
	// a received reachable(b,c) from b.
	stores["a"].RecordOrigin(reachBCb, Ref{Node: "b", Key: KeyOf(reachBCb)}, 2)
	// a derives reachable(a,c) two ways.
	stores["a"].RecordDeriv(reachAC, "r1", []Ref{{Node: "a", Key: KeyOf(linkAC)}}, 3)
	stores["a"].RecordDeriv(reachAC, "r2", []Ref{
		{Node: "a", Key: KeyOf(linkAB)},
		{Node: "a", Key: KeyOf(reachBCb)},
	}, 3)
	return stores, KeyOf(reachAC)
}

func resolver(stores map[string]*Store) Resolver {
	return ResolverFunc(func(n string) *Store { return stores[n] })
}

func TestTraceFullTree(t *testing.T) {
	stores, key := buildDistributedScenario()
	tree, stats, err := Trace(resolver(stores), "a", key, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Derivs) != 2 {
		t.Fatalf("derivs = %d\n%s", len(tree.Derivs), tree.Render(nil))
	}
	// The traceback crossed to node b exactly once (for reachable(b,c)).
	if stats.Messages != 1 {
		t.Errorf("messages = %d, want 1", stats.Messages)
	}
	if stats.NodesVisited != 2 {
		t.Errorf("nodes visited = %d, want 2", stats.NodesVisited)
	}
	if stats.Bytes <= 0 {
		t.Error("remote hop must charge bytes")
	}
	// The reconstructed tree bottoms out at the three base links.
	leaves := tree.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %v\n%s", leaves, tree.Render(nil))
	}
	out := tree.Render(nil)
	for _, want := range []string{"r1 @a", "r2 @a", "s1 @b", "@recv @a"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace render missing %q:\n%s", want, out)
		}
	}
}

func TestTraceMissingEntry(t *testing.T) {
	stores, _ := buildDistributedScenario()
	if _, _, err := Trace(resolver(stores), "a", "nonsense-key", QueryOpts{}); err == nil {
		t.Fatal("missing root entry must fail")
	}
	if _, _, err := Trace(resolver(stores), "ghost", "k", QueryOpts{}); err == nil {
		t.Fatal("unknown node must fail")
	}
}

func TestTraceBrokenPointerTruncates(t *testing.T) {
	stores, key := buildDistributedScenario()
	// Damage: b forgets everything (e.g. aged out). The trace still
	// returns, with the remote subtree truncated.
	stores["b"] = NewStore("b")
	tree, _, err := Trace(resolver(stores), "a", key, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree.Render(nil), "(truncated)") {
		t.Errorf("expected truncated marker:\n%s", tree.Render(nil))
	}
}

func TestTraceOfflineFallback(t *testing.T) {
	stores, key := buildDistributedScenario()
	stores["b"].EnableOffline(-1)
	// Re-record to mirror into offline, then expire the online state.
	linkBC := data.NewTuple("link", data.Str("b"), data.Str("c")).Says("b")
	reachBCb := data.NewTuple("reachable", data.Str("b"), data.Str("c")).Says("b")
	stores["b"].RecordBase(linkBC, 0)
	stores["b"].RecordDeriv(reachBCb, "s1", []Ref{{Node: "b", Key: KeyOf(linkBC)}}, 1)
	stores["b"].Forget(KeyOf(linkBC))
	stores["b"].Forget(KeyOf(reachBCb))

	// Online-only trace truncates at b.
	tree, _, err := Trace(resolver(stores), "a", key, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree.Render(nil), "(truncated)") {
		t.Error("online trace should truncate at expired state")
	}
	// Offline trace reconstructs fully — the forensics use case (§4.2).
	tree2, _, err := Trace(resolver(stores), "a", key, QueryOpts{Offline: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tree2.Render(nil), "(truncated)") {
		t.Errorf("offline trace should be complete:\n%s", tree2.Render(nil))
	}
	if len(tree2.Leaves()) != 3 {
		t.Errorf("offline leaves = %v", tree2.Leaves())
	}
}

func TestMoonwalkSamplesOnePath(t *testing.T) {
	stores, key := buildDistributedScenario()
	rng := rand.New(rand.NewSource(1))
	tree, stats, err := Trace(resolver(stores), "a", key, QueryOpts{Moonwalk: true, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	// A moonwalk keeps exactly one derivation per node and one child per
	// derivation: the tree is a path.
	cur := tree
	for len(cur.Derivs) > 0 {
		if len(cur.Derivs) != 1 || len(cur.Derivs[0].Children) != 1 {
			t.Fatalf("moonwalk produced branching:\n%s", tree.Render(nil))
		}
		cur = cur.Derivs[0].Children[0]
	}
	// It ends at a base tuple and costs at most the full trace.
	if cur.Tuple.Pred != "link" && !cur.Truncated {
		t.Errorf("moonwalk end = %v", cur.Tuple)
	}
	if stats.Entries > 5 {
		t.Errorf("moonwalk read %d entries", stats.Entries)
	}
	// Requires an Rng.
	if _, _, err := Trace(resolver(stores), "a", key, QueryOpts{Moonwalk: true}); err == nil {
		t.Error("moonwalk without rng must fail")
	}
}

func TestTraceCycleTerminates(t *testing.T) {
	// Mutually derived tuples (possible with cyclic rules) must not hang.
	s := NewStore("a")
	p := data.NewTuple("p", data.Int(1))
	q := data.NewTuple("q", data.Int(1))
	s.RecordDeriv(p, "r1", []Ref{{Node: "a", Key: KeyOf(q)}}, 0)
	s.RecordDeriv(q, "r2", []Ref{{Node: "a", Key: KeyOf(p)}}, 0)
	tree, _, err := Trace(resolver(map[string]*Store{"a": s}), "a", KeyOf(p), QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree.Render(nil), "(truncated)") {
		t.Error("cycle must truncate")
	}
}

func TestTraceDepthLimit(t *testing.T) {
	// A chain longer than MaxDepth truncates.
	s := NewStore("a")
	var prev data.Tuple
	for i := 0; i < 30; i++ {
		cur := data.NewTuple("c", data.Int(int64(i)))
		if i > 0 {
			s.RecordDeriv(cur, "step", []Ref{{Node: "a", Key: KeyOf(prev)}}, 0)
		} else {
			s.RecordBase(cur, 0)
		}
		prev = cur
	}
	tree, _, err := Trace(resolver(map[string]*Store{"a": s}), "a", KeyOf(prev), QueryOpts{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 7 {
		t.Errorf("depth = %d exceeds limit", tree.Depth())
	}
	if !strings.Contains(tree.Render(nil), "(truncated)") {
		t.Error("deep chain must truncate")
	}
}

// TestTraceRacesRecordDeriv traces one head while another goroutine
// keeps recording alternate derivations of it: under -race the walk may
// read an entry only through what the store's read lock hands it.
func TestTraceRacesRecordDeriv(t *testing.T) {
	s := NewStore("a")
	res := ResolverFunc(func(string) *Store { return s })
	link := data.NewTuple("link", data.Str("a"), data.Str("b"))
	head := data.NewTuple("reachable", data.Str("a"), data.Str("b"))
	children := []Ref{{Node: "a", Key: s.RecordBase(link, 0)}}
	key := s.RecordDeriv(head, "r0", children, 0)
	const alternates = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= alternates; i++ {
			s.RecordDeriv(head, "r"+strconv.Itoa(i), children, float64(i))
		}
	}()
	for i := 0; i < alternates; i++ {
		tree, _, err := Trace(res, "a", key, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(tree.Derivs); n < 1 || n > alternates+1 {
			t.Fatalf("trace %d: %d derivations", i, n)
		}
	}
	<-done
	tree, _, err := Trace(res, "a", key, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tree.Derivs); n != alternates+1 {
		t.Fatalf("after the writer: %d derivations, want %d", n, alternates+1)
	}
}

// TestTraceDedupsEqualOrigins pins the union rule for shipped tuples:
// origins whose subtrees root at the same tuple give one @recv
// derivation, while every hop is still charged.
func TestTraceDedupsEqualOrigins(t *testing.T) {
	x := data.NewTuple("route", data.Str("a"), data.Int(3))
	xd := x.Says("d")
	stores := map[string]*Store{"a": NewStore("a"), "b": NewStore("b"), "c": NewStore("c"), "d": NewStore("d")}
	stores["b"].RecordBase(x, 0)
	stores["c"].RecordBase(x, 0)
	stores["d"].RecordBase(xd, 0)
	stores["a"].RecordOrigin(x, Ref{Node: "b", Key: KeyOf(x)}, 1)
	stores["a"].RecordOrigin(x, Ref{Node: "c", Key: KeyOf(x)}, 1)
	stores["a"].RecordOrigin(x, Ref{Node: "d", Key: KeyOf(xd)}, 1)
	tree, stats, err := Trace(resolver(stores), "a", KeyOf(x), QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := "route(a, 3)\n└─ union\n   ├─ @recv @a\n   │  └─ route(a, 3)\n   └─ @recv @a\n      └─ d says route(a, 3)\n"
	if got := tree.Render(nil); got != want {
		t.Errorf("tree:\n%s\nwant:\n%s", got, want)
	}
	bytes := int64(2*len(NewLeaf(x).Marshal()) + len(NewLeaf(xd).Marshal()))
	if *stats != (QueryStats{Messages: 3, Bytes: bytes, NodesVisited: 4, Entries: 4}) {
		t.Errorf("stats = %+v, want 3 messages, %d bytes, 4 nodes, 4 entries", *stats, bytes)
	}
}
