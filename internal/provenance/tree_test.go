package provenance

import (
	"strings"
	"testing"

	"provnet/internal/data"
	"provnet/internal/semiring"
)

// paperTree builds the Figure 1 derivation tree for reachable(a,c):
// union of r1 over link(a,c) and r2 over link(a,b), reachable(b,c).
func paperTree() *Tree {
	linkAB := NewLeaf(data.NewTuple("link", data.Str("a"), data.Str("b")).Says("a"))
	linkAC := NewLeaf(data.NewTuple("link", data.Str("a"), data.Str("c")).Says("a"))
	linkBC := NewLeaf(data.NewTuple("link", data.Str("b"), data.Str("c")).Says("b"))
	reachBC := NewDerived(data.NewTuple("reachable", data.Str("b"), data.Str("c")).Says("b"),
		"r1", "b", []*Tree{linkBC})
	root := NewDerived(data.NewTuple("reachable", data.Str("a"), data.Str("c")).Says("a"),
		"r1", "a", []*Tree{linkAC})
	root.Merge(NewDerived(root.Tuple, "r2", "a", []*Tree{linkAB, reachBC}))
	return root
}

func TestTreeBasics(t *testing.T) {
	tr := paperTree()
	if len(tr.Derivs) != 2 {
		t.Fatalf("derivs = %d", len(tr.Derivs))
	}
	// Nodes: root, link(a,c), link(a,b), reachable(b,c), link(b,c).
	if tr.Size() != 5 {
		t.Errorf("size = %d, want 5", tr.Size())
	}
	if tr.Depth() != 3 {
		t.Errorf("depth = %d, want 3", tr.Depth())
	}
}

func TestMergeDedup(t *testing.T) {
	tr := paperTree()
	// Re-merging the same derivation is a no-op.
	dup := NewDerived(tr.Tuple, "r1", "a",
		[]*Tree{NewLeaf(data.NewTuple("link", data.Str("a"), data.Str("c")).Says("a"))})
	if tr.Merge(dup) {
		t.Error("duplicate derivation must not change the tree")
	}
	if len(tr.Derivs) != 2 {
		t.Errorf("derivs = %d", len(tr.Derivs))
	}
	// A genuinely new derivation changes it.
	novel := NewDerived(tr.Tuple, "r9", "a",
		[]*Tree{NewLeaf(data.NewTuple("link", data.Str("a"), data.Str("c")).Says("a"))})
	if !tr.Merge(novel) {
		t.Error("new derivation must register")
	}
	if tr.Merge(nil) {
		t.Error("merging nil is a no-op")
	}
}

func TestLeaves(t *testing.T) {
	leaves := paperTree().Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %v", leaves)
	}
	// All leaves are link tuples — the "initial input base tuples".
	for _, l := range leaves {
		if l.Pred != "link" {
			t.Errorf("leaf %v is not a base link", l)
		}
	}
}

func TestRenderFigure1Shape(t *testing.T) {
	out := paperTree().Render(nil)
	for _, want := range []string{"union", "r1 @a", "r2 @a", "a says link(a, c)", "b says reachable(b, c)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Single-derivation nodes render without a union.
	sub := NewDerived(data.NewTuple("p", data.Int(1)), "r", "a", []*Tree{NewLeaf(data.NewTuple("q", data.Int(2)))})
	if strings.Contains(sub.Render(nil), "union") {
		t.Error("single derivation must not print union")
	}
}

func TestRenderAnnotated(t *testing.T) {
	tr := paperTree()
	out := tr.Render(func(n *Tree) string {
		if n.Tuple.Pred == "reachable" && n.Tuple.Args[0].Str == "a" {
			return "<a+a*b>"
		}
		return ""
	})
	if !strings.Contains(out, "<a+a*b>") {
		t.Errorf("annotation missing:\n%s", out)
	}
}

func TestTreeMarshalRoundTrip(t *testing.T) {
	tr := paperTree()
	tr.Derivs[0].Children[0].Truncated = true
	b := tr.Marshal()
	got, err := UnmarshalTree(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != tr.Size() || len(got.Derivs) != len(tr.Derivs) {
		t.Fatalf("round trip mismatch: %v", got)
	}
	if !got.Derivs[0].Children[0].Truncated {
		t.Error("truncated flag lost")
	}
	if !got.Tuple.Equal(tr.Tuple) {
		t.Error("tuple mismatch")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalTree(nil); err == nil {
		t.Error("nil should fail")
	}
	b := paperTree().Marshal()
	if _, err := UnmarshalTree(b[:len(b)-2]); err == nil {
		t.Error("truncated should fail")
	}
	if _, err := UnmarshalTree(append(b, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestTreePolyPaperExample(t *testing.T) {
	// Figure 2: reachable(a,c) has provenance a + a*b.
	p := TreePoly(paperTree(), "")
	if got := p.String(); got != "a + a*b" {
		t.Fatalf("tree poly = %q, want a + a*b", got)
	}
	// Under the trust semiring with level(a)=2, level(b)=1: trust 2.
	levels := map[string]int64{"a": 2, "b": 1}
	trust := semiring.Eval[int64](p, semiring.Trust{}, func(v string) int64 { return levels[v] })
	if trust != 2 {
		t.Errorf("trust = %d, want 2", trust)
	}
}
