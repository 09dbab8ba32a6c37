package provenance

import (
	"math/rand"
	"testing"

	"provnet/internal/bdd"
	"provnet/internal/data"
	"provnet/internal/datalog"
	"provnet/internal/engine"
	"provnet/internal/semiring"
)

func linkT(a, b string) data.Tuple {
	return data.NewTuple("link", data.Str(a), data.Str(b)).Says(a)
}

func TestCondensedPaperExample(t *testing.T) {
	// Reproduce Figure 2's condensation at node a: reachable(a,c) has
	// provenance <a + a*b>, condensed to <a>.
	trA := NewTracker(TrackerConfig{Mode: ModeCondensed, Self: "a"})
	trB := NewTracker(TrackerConfig{Mode: ModeCondensed, Self: "b"})

	// At b: link(b,c) base → reachable(b,c) via s1, shipped to a.
	linkBC := trB.Base(linkT("b", "c"))
	reachBC := data.NewTuple("reachable", data.Str("b"), data.Str("c")).Says("b")
	annBC := trB.Derive("s1", "b", reachBC, []engine.AnnTuple{{Tuple: linkT("b", "c"), Ann: linkBC}})
	payload := trB.Export(reachBC, annBC)
	if len(payload) == 0 {
		t.Fatal("condensed export must carry a payload")
	}

	// At a: base links, r1 derivation, import of b's tuple, r2 derivation.
	annLinkAC := trA.Base(linkT("a", "c"))
	annLinkAB := trA.Base(linkT("a", "b"))
	reachAC := data.NewTuple("reachable", data.Str("a"), data.Str("c")).Says("a")
	d1 := trA.Derive("r1", "a", reachAC, []engine.AnnTuple{{Tuple: linkT("a", "c"), Ann: annLinkAC}})

	imported, err := trA.Import(reachBC, payload)
	if err != nil {
		t.Fatal(err)
	}
	d2 := trA.Derive("r2", "a", reachAC, []engine.AnnTuple{
		{Tuple: linkT("a", "b"), Ann: annLinkAB},
		{Tuple: reachBC, Ann: imported},
	})
	merged, changed := trA.Merge(d1, d2)
	// Absorption at work: a + a*b = a, so the merged annotation is
	// UNCHANGED — condensation saves the re-propagation entirely. Whether
	// b is trusted is inconsequential given a (§4.4).
	if changed {
		t.Fatal("a + a*b should not change an existing <a> annotation")
	}
	if got := trA.ExprOf(merged); got != "<a>" {
		t.Fatalf("condensed = %q, want <a>", got)
	}
	// A genuinely new alternative (via a different principal) does change
	// the annotation.
	trC := NewTracker(TrackerConfig{Mode: ModeCondensed, Self: "c"})
	_ = trC
	dOther := trA.Manager().Var("c")
	m2, changed2 := trA.Merge(merged, dOther)
	if !changed2 || trA.ExprOf(m2) != "<a + c>" {
		t.Fatalf("merge with c: changed=%v expr=%s", changed2, trA.ExprOf(m2))
	}
	// Merging the same derivation again changes nothing.
	if _, again := trA.Merge(merged, d2); again {
		t.Error("idempotent merge")
	}
	// Quantifiable: evaluate the polynomial under Trust.
	p := trA.PolyOf(merged)
	levels := map[string]int64{"a": 2, "b": 1}
	if got := semiring.Eval[int64](p, semiring.Trust{}, func(v string) int64 { return levels[v] }); got != 2 {
		t.Errorf("trust = %d, want 2", got)
	}
}

func TestCondensedImportAcrossManagers(t *testing.T) {
	// Receiving managers may have different variable orders.
	trA := NewTracker(TrackerConfig{Mode: ModeCondensed, Self: "a"})
	trB := NewTracker(TrackerConfig{Mode: ModeCondensed, Self: "b"})
	trB.Manager().DeclareOrder("z9", "a", "b") // deliberately different order
	ann := trA.Base(linkT("a", "b"))
	tu := linkT("a", "b")
	got, err := trB.Import(tu, trA.Export(tu, ann))
	if err != nil {
		t.Fatal(err)
	}
	if trB.ExprOf(got) != "<a>" {
		t.Errorf("imported expr = %s", trB.ExprOf(got))
	}
}

// TestExprOfMatchesUncached checks the expression memo against the one
// renderer it caches. Random monotone functions over eight principals
// are built in the tracker's manager, and every third one in a second
// manager with another variable order, imported through a BDD table.
// For every node, ExprOf must be "<" + Expr + ">" on the first call, on
// a repeat, and after the manager has grown past the node.
func TestExprOfMatchesUncached(t *testing.T) {
	principals := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	rng := rand.New(rand.NewSource(36))
	tr := NewTracker(TrackerConfig{Mode: ModeCondensed, Self: "p0"})
	mgr := tr.Manager()
	other := bdd.New()
	other.DeclareOrder("p7", "p5", "p3", "p1", "p6", "p4", "p2", "p0")
	random := func(m *bdd.Manager) bdd.Node {
		sum := bdd.False
		for range 1 + rng.Intn(4) {
			prod := bdd.True
			for range 1 + rng.Intn(3) {
				prod = m.And(prod, m.Var(principals[rng.Intn(len(principals))]))
			}
			sum = m.Or(sum, prod)
		}
		return sum
	}
	check := func(when string, n bdd.Node) {
		t.Helper()
		if got, want := tr.ExprOf(n), "<"+mgr.Expr(n)+">"; got != want {
			t.Fatalf("node %d, %s: ExprOf = %q, uncached %q", n, when, got, want)
		}
	}
	var built []bdd.Node
	for i := range 60 {
		n := random(mgr)
		if i%3 == 2 {
			table, refs := other.AppendTable(nil, nil, []bdd.Node{random(other)})
			nodes, err := mgr.DecodeTable(table)
			if err != nil {
				t.Fatal(err)
			}
			n = nodes[refs[0]]
		}
		check("first call", n)
		check("repeat", n)
		built = append(built, n)
	}
	for _, n := range built {
		check("after growth", n)
	}
	for n := range bdd.Node(mgr.NumNodes()) {
		check("every node", n)
	}
	if got := tr.ExprMemoSize(); got != mgr.NumNodes() {
		t.Errorf("memo holds %d entries after rendering all %d nodes", got, mgr.NumNodes())
	}
}

func TestLocalModeTreeShipping(t *testing.T) {
	trB := NewTracker(TrackerConfig{Mode: ModeLocal, Self: "b"})
	linkBC := trB.Base(linkT("b", "c"))
	reachBC := data.NewTuple("reachable", data.Str("b"), data.Str("c")).Says("b")
	ann := trB.Derive("s1", "b", reachBC, []engine.AnnTuple{{Tuple: linkT("b", "c"), Ann: linkBC}})
	payload := trB.Export(reachBC, ann)

	trA := NewTracker(TrackerConfig{Mode: ModeLocal, Self: "a"})
	imported, err := trA.Import(reachBC, payload)
	if err != nil {
		t.Fatal(err)
	}
	tree, ok := imported.(*Tree)
	if !ok {
		t.Fatalf("imported type %T", imported)
	}
	// The complete derivation tree arrived: leaf is link(b,c).
	leaves := tree.Leaves()
	if len(leaves) != 1 || leaves[0].Pred != "link" {
		t.Fatalf("leaves = %v", leaves)
	}
	if tree.Derivs[0].Rule != "s1" || tree.Derivs[0].Loc != "b" {
		t.Errorf("deriv = %+v", tree.Derivs[0])
	}
}

func TestLocalModeMergeAlternatives(t *testing.T) {
	tr := NewTracker(TrackerConfig{Mode: ModeLocal, Self: "a"})
	head := data.NewTuple("reachable", data.Str("a"), data.Str("c"))
	// Derivation 1 (r1): from link(a,c) said by a.
	a1 := tr.Derive("r1", "a", head, []engine.AnnTuple{{Tuple: linkT("a", "c"), Ann: tr.Base(linkT("a", "c"))}})
	// Derivation 2 (r2): from link(a,b) said by a joined with
	// reachable(b,c) said by b — Figure 2's second branch.
	reachBC := NewLeaf(data.NewTuple("reachable", data.Str("b"), data.Str("c")).Says("b"))
	a2 := tr.Derive("r2", "a", head, []engine.AnnTuple{
		{Tuple: linkT("a", "b"), Ann: tr.Base(linkT("a", "b"))},
		{Tuple: reachBC.Tuple, Ann: reachBC},
	})
	merged, changed := tr.Merge(a1, a2)
	if !changed {
		t.Fatal("alternative derivation must merge")
	}
	tree := merged.(*Tree)
	if len(tree.Derivs) != 2 {
		t.Fatalf("derivs = %d", len(tree.Derivs))
	}
	// The uncondensed tree provenance is the paper's a + a*b.
	if got := TreePoly(tree, "a").String(); got != "a + a*b" {
		t.Errorf("poly = %s, want a + a*b", got)
	}
}

func TestDistributedModeRecordsPointers(t *testing.T) {
	storeA := NewStore("a")
	trA := NewTracker(TrackerConfig{Mode: ModeDistributed, Self: "a", Store: storeA})
	la := linkT("a", "b")
	annL := trA.Base(la)
	if r, ok := annL.(Ref); !ok || r.Node != "a" {
		t.Fatalf("base ann = %v", annL)
	}
	head := data.NewTuple("reachable", data.Str("a"), data.Str("b")).Says("a")
	annH := trA.Derive("r1", "a", head, []engine.AnnTuple{{Tuple: la, Ann: annL}})
	payload := trA.Export(head, annH)

	// The payload is just the pointer — tiny.
	if len(payload) == 0 || len(payload) > 200 {
		t.Fatalf("pointer payload size = %d", len(payload))
	}
	// Receiving side records the origin.
	storeB := NewStore("b")
	trB := NewTracker(TrackerConfig{Mode: ModeDistributed, Self: "b", Store: storeB})
	if _, e := trB.Import(head, payload); e != nil {
		t.Fatal(e)
	}
	entry, ok := storeB.Get(KeyOf(head))
	if !ok || len(entry.Origins) != 1 || entry.Origins[0].Node != "a" {
		t.Fatalf("origin entry = %+v", entry)
	}
	// And a's store has the derivation.
	ea, ok := storeA.Get(KeyOf(head))
	if !ok || len(ea.Derivs) != 1 || ea.Derivs[0].Rule != "r1" {
		t.Fatalf("a's entry = %+v", ea)
	}
}

func TestSamplingRecordsFraction(t *testing.T) {
	store := NewStore("a")
	tr := NewTracker(TrackerConfig{Mode: ModeDistributed, Self: "a", Store: store, SampleEvery: 10})
	for i := 0; i < 100; i++ {
		head := data.NewTuple("p", data.Int(int64(i)))
		tr.Derive("r", "a", head, nil)
	}
	// Exactly 1 in 10 derivations recorded.
	n := 0
	for i := 0; i < 100; i++ {
		if _, ok := store.Get(KeyOf(data.NewTuple("p", data.Int(int64(i))))); ok {
			n++
		}
	}
	if n != 10 {
		t.Errorf("sampled entries = %d, want 10", n)
	}
}

func TestModeNoneIsInert(t *testing.T) {
	tr := NewTracker(TrackerConfig{Mode: ModeNone, Self: "a"})
	tu := linkT("a", "b")
	if tr.Base(tu) != nil {
		t.Error("none base")
	}
	if got := tr.Export(tu, nil); got != nil {
		t.Error("none export")
	}
	ann, e := tr.Import(tu, nil)
	if e != nil || ann != nil {
		t.Error("none import")
	}
	if _, changed := tr.Merge(nil, nil); changed {
		t.Error("none merge")
	}
}

func TestTrackerAsEngineHook(t *testing.T) {
	// Integration: run the engine with a condensed tracker and check the
	// stored annotation.
	tr := NewTracker(TrackerConfig{Mode: ModeCondensed, Self: "a"})
	e := engine.New(engine.Config{Self: "a", Authenticated: true, Hook: tr})
	prog := mustLocalized(t, `
s1 reachable(S,D) :- link(S,D).
`)
	if err := e.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	e.InsertFact(data.NewTuple("link", data.Str("a"), data.Str("b")))
	e.RunToFixpoint()
	got := e.Tuples("reachable")
	if len(got) != 1 {
		t.Fatalf("reachable = %v", got)
	}
	ann := e.AnnotationOf(got[0])
	if tr.ExprOf(ann) != "<a>" {
		t.Errorf("annotation = %s", tr.ExprOf(ann))
	}
	if _, ok := ann.(bdd.Node); !ok {
		t.Errorf("annotation type %T", ann)
	}
}

func mustLocalized(t *testing.T, src string) *datalog.Program {
	t.Helper()
	prog, e1 := datalog.Parse("At S:\n" + src)
	if e1 != nil {
		t.Fatal(e1)
	}
	out, e2 := datalog.Localize(prog)
	if e2 != nil {
		t.Fatal(e2)
	}
	return out
}
