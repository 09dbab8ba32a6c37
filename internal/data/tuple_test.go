package data

import (
	"math"
	"testing"
)

func TestTupleBasics(t *testing.T) {
	tu := NewTuple("link", Str("a"), Str("b"), Int(1))
	if tu.Pred != "link" || len(tu.Args) != 3 {
		t.Fatalf("NewTuple = %#v", tu)
	}
	if got := tu.String(); got != "link(a, b, 1)" {
		t.Errorf("String = %q", got)
	}
	said := tu.Says("a")
	if said.Asserter != "a" || tu.Asserter != "" {
		t.Errorf("Says should not mutate receiver: %#v / %#v", said, tu)
	}
	if got := said.String(); got != "a says link(a, b, 1)" {
		t.Errorf("said String = %q", got)
	}
	if said.WithoutAsserter().Asserter != "" {
		t.Error("WithoutAsserter")
	}
}

func TestTupleEqualAndKey(t *testing.T) {
	a := NewTuple("p", Int(1), Str("x"))
	b := NewTuple("p", Int(1), Str("x"))
	c := NewTuple("p", Int(1), Str("y"))
	d := NewTuple("q", Int(1), Str("x"))
	e := a.Says("alice")

	if !a.Equal(b) || a.Key() != b.Key() {
		t.Error("identical tuples must be equal with equal keys")
	}
	for _, o := range []Tuple{c, d, e} {
		if a.Equal(o) {
			t.Errorf("a should differ from %v", o)
		}
		if a.Key() == o.Key() {
			t.Errorf("key collision between %v and %v", a, o)
		}
	}
}

func TestTupleKeyInjectiveAcrossArity(t *testing.T) {
	// "p"("ab") vs "pa"("b")-style confusions must not collide.
	pairs := [][2]Tuple{
		{NewTuple("p", Str("ab")), NewTuple("pa", Str("b"))},
		{NewTuple("p", Str("a"), Str("b")), NewTuple("p", Str("ab"))},
		{NewTuple("p"), NewTuple("p", Str(""))},
		{NewTuple("p", List(Int(1), Int(2))), NewTuple("p", Int(1), Int(2))},
	}
	for _, pr := range pairs {
		if pr[0].Key() == pr[1].Key() {
			t.Errorf("key collision: %v vs %v", pr[0], pr[1])
		}
	}
}

func TestValueKeySubset(t *testing.T) {
	a := NewTuple("path", Str("s"), Str("d"), Int(5))
	b := NewTuple("path", Str("s"), Str("d"), Int(9))
	if a.ValueKey([]int{0, 1}) != b.ValueKey([]int{0, 1}) {
		t.Error("ValueKey over group columns should match")
	}
	if a.ValueKey([]int{0, 1, 2}) == b.ValueKey([]int{0, 1, 2}) {
		t.Error("ValueKey over all columns should differ")
	}
}

func TestTupleClone(t *testing.T) {
	orig := NewTuple("p", List(Str("a"), Str("b")), Int(3))
	cp := orig.Clone()
	cp.Args[0].List[0] = Str("zz")
	cp.Args[1] = Int(99)
	if orig.Args[0].List[0].Str != "a" {
		t.Error("Clone must deep-copy nested lists")
	}
	if orig.Args[1].Int != 3 {
		t.Error("Clone must copy args")
	}
}

func TestSortTuples(t *testing.T) {
	ts := []Tuple{
		NewTuple("b", Int(2)),
		NewTuple("a", Int(9)),
		NewTuple("b", Int(1)),
		NewTuple("a", Int(1), Int(0)),
		NewTuple("a", Int(1)),
	}
	SortTuples(ts)
	want := []string{"a(1)", "a(1, 0)", "a(9)", "b(1)", "b(2)"}
	for i, w := range want {
		if ts[i].String() != w {
			t.Fatalf("sorted[%d] = %s, want %s", i, ts[i], w)
		}
	}
}

// TestCompareTuplesTotalOrder pins the order views and merges rely on:
// tuples Value.Compare ties — Int 1 against Float 1.0, at the top level
// or inside a list, and integers beyond float64's 53 bits — still have
// one order, so sorting any permutation of them gives the same slice.
func TestCompareTuplesTotalOrder(t *testing.T) {
	big := int64(1) << 53
	ordered := []Tuple{ // strictly ascending
		NewTuple("p"),
		NewTuple("p", Int(1)),
		NewTuple("p", Float(1)),
		NewTuple("p", Int(1), Int(2)),
		NewTuple("p", Int(1), Float(2)),
		NewTuple("p", Float(1), Int(2)),
		NewTuple("p", Float(1), Float(2)),
		NewTuple("p", Float(1.5)),
		NewTuple("p", Int(big)),
		NewTuple("p", Int(big+1)),
		NewTuple("p", Bool(true)),
		NewTuple("p", Str("a")),
		NewTuple("p", List(Int(1), Str("x"))),
		NewTuple("p", List(Float(1), Str("x"))),
		NewTuple("p", List(Float(1), Str("y"))),
		NewTuple("p", Int(1)).Says("alice"),
		NewTuple("p", Float(1)).Says("alice"),
		NewTuple("q", Int(0)),
	}
	for i, a := range ordered {
		for j, b := range ordered {
			want := 0
			switch {
			case i < j:
				want = -1
			case i > j:
				want = 1
			}
			if got := CompareTuples(a, b); got != want {
				t.Errorf("CompareTuples(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
	// Both sort paths (insertion below 25 elements, slices.SortFunc above)
	// restore the order from any permutation.
	for _, copies := range []int{1, 3} {
		var want []Tuple
		for _, tu := range ordered {
			for c := 0; c < copies; c++ {
				want = append(want, tu)
			}
		}
		got := make([]Tuple, len(want))
		for i := range want {
			got[(i*7+3)%len(want)] = want[i] // 7 is coprime to 18 and 54
		}
		SortTuples(got)
		for i := range want {
			if CompareTuples(got[i], want[i]) != 0 {
				t.Fatalf("%d copies: sorted[%d] = %v, want %v", copies, i, got[i], want[i])
			}
		}
	}
}

// TestTupleTextRendering pins String and AppendText to one rendering,
// value kind by value kind: the text is what /v1 replies and the CLI
// print, and ParseTuple reads it back.
func TestTupleTextRendering(t *testing.T) {
	cases := []struct {
		tu   Tuple
		want string
	}{
		{NewTuple("empty"), "empty()"},
		{NewTuple("s", Str(""), Str("node1"), Str("n_2.b:c")), `s("", node1, n_2.b:c)`},
		{NewTuple("s", Str("Has Space"), Str("Upper"), Str("9lives")), `s("Has Space", "Upper", "9lives")`},
		{NewTuple("s", Str("a\"b\\c\n"), Str("é")), `s("a\"b\\c\n", "é")`},
		{NewTuple("i", Int(-5), Int(0), Int(-9223372036854775808)), "i(-5, 0, -9223372036854775808)"},
		{NewTuple("f", Float(2), Float(1e21), Float(math.NaN()), Float(-0.5), Float(math.Inf(-1))), "f(2, 1e+21, NaN, -0.5, -Inf)"},
		{NewTuple("b", Bool(true), Bool(false)), "b(true, false)"},
		{NewTuple("l", List(), List(List(Str("a"), Str("B")), Int(3), List(List()))), `l([], [[a,"B"],3,[[]]])`},
		{NewTuple("reachable", Str("b"), Str("c")).Says("b"), "b says reachable(b, c)"},
		{NewTuple("k", Value{Kind: Kind(9)}), "k(?)"},
	}
	for _, c := range cases {
		if got := c.tu.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
		prefix := []byte("x|")
		if got := string(c.tu.AppendText(prefix)); got != "x|"+c.want {
			t.Errorf("AppendText = %q, want %q", got, "x|"+c.want)
		}
		for i, a := range c.tu.Args {
			want := a.String()
			if got := string(a.appendText(nil)); got != want {
				t.Errorf("%s arg %d: appendText = %q, String = %q", c.want, i, got, want)
			}
		}
	}
}
