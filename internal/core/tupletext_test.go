package core

import (
	"math"
	"strings"
	"testing"

	"provnet/internal/data"
)

func TestParseTuple(t *testing.T) {
	cases := []struct {
		in   string
		want data.Tuple
	}{
		{"reachable(a, c)", data.NewTuple("reachable", data.Str("a"), data.Str("c"))},
		{"link(a,b,3)", data.NewTuple("link", data.Str("a"), data.Str("b"), data.Int(3))},
		{"metric(n1, 2.5)", data.NewTuple("metric", data.Str("n1"), data.Float(2.5))},
		{`label(n1, "hello, world")`, data.NewTuple("label", data.Str("n1"), data.Str("hello, world"))},
		{"path(a, c, [a,b,c], 2)", data.NewTuple("path", data.Str("a"), data.Str("c"), data.Strings("a", "b", "c"), data.Int(2))},
		{"b says reachable(a, c)", data.NewTuple("reachable", data.Str("a"), data.Str("c")).Says("b")},
		{"empty()", data.NewTuple("empty")},
		{"flags(true, false)", data.NewTuple("flags", data.Bool(true), data.Bool(false))},
		{"nested(p, [[a,b],c])", data.NewTuple("nested", data.Str("p"), data.List(data.Strings("a", "b"), data.Str("c")))},
	}
	for _, c := range cases {
		got, err := ParseTuple(c.in)
		if err != nil {
			t.Errorf("ParseTuple(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseTuple(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseTupleErrors(t *testing.T) {
	for _, in := range []string{"", "nope", "p(a", "p(a))", `p("unterminated)`, "p([a)"} {
		if _, err := ParseTuple(in); err == nil {
			t.Errorf("ParseTuple(%q) should fail", in)
		}
	}
}

func TestParseTupleRoundTripsWithString(t *testing.T) {
	orig := data.NewTuple("path", data.Str("a"), data.Str("c"), data.Strings("a", "b"), data.Int(7)).Says("x")
	got, err := ParseTuple(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(orig) {
		t.Errorf("round trip: %v != %v", got, orig)
	}
}

// TestParseTupleDepthLimit pins the nesting bound of tuple text (the
// /v1/traceback?tuple= path): maxValueDepth levels parse — and survive
// the wire codec, so the two bounds agree — one more is rejected before
// any nested re-scan.
func TestParseTupleDepthLimit(t *testing.T) {
	nested := func(depth int) string {
		return "p(" + strings.Repeat("[", depth) + "a" + strings.Repeat("]", depth) + ")"
	}
	got, err := ParseTuple(nested(maxValueDepth))
	if err != nil {
		t.Fatalf("depth %d: %v", maxValueDepth, err)
	}
	if back, _, err := data.DecodeTuple(data.EncodeTuple(got)); err != nil || !back.Equal(got) {
		t.Errorf("depth %d does not round-trip the wire codec: %v", maxValueDepth, err)
	}
	if _, err := ParseTuple(nested(maxValueDepth + 1)); err == nil {
		t.Errorf("depth %d parsed, want an error", maxValueDepth+1)
	}
	if _, _, err := data.DecodeTuple(data.EncodeTuple(data.NewTuple("p", deepList(maxValueDepth+1)))); err == nil {
		t.Errorf("wire codec accepts depth %d: the text and wire bounds disagree", maxValueDepth+1)
	}
}

// deepList nests an int inside depth lists.
func deepList(depth int) data.Value {
	v := data.Int(0)
	for i := 0; i < depth; i++ {
		v = data.List(v)
	}
	return v
}

// TestParseValueNumericTokens pins what a token that may or may not be a
// number parses to: the spellings strconv accepts become numbers, the
// rest bare strings.
func TestParseValueNumericTokens(t *testing.T) {
	cases := []struct {
		in   string
		want data.Value
	}{
		{"inf", data.Float(math.Inf(1))},
		{"-Inf", data.Float(math.Inf(-1))},
		{"NaN", data.Float(math.NaN())},
		{"Infinity", data.Float(math.Inf(1))},
		{"+1", data.Int(1)},
		{"-7", data.Int(-7)},
		{".5", data.Float(0.5)},
		{"1e3", data.Float(1000)},
		{"e5", data.Str("e5")},
		{"n3", data.Str("n3")},
		{"0x1p-2", data.Float(0.25)},
		{"a1", data.Str("a1")},
		{"infx", data.Str("infx")},
		{"-", data.Str("-")},
	}
	for _, c := range cases {
		got, err := parseValue(c.in)
		if err != nil {
			t.Errorf("parseValue(%q): %v", c.in, err)
			continue
		}
		same := got.Kind == c.want.Kind && got.Int == c.want.Int && got.Str == c.want.Str &&
			math.Float64bits(got.Float) == math.Float64bits(c.want.Float)
		if !same {
			t.Errorf("parseValue(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}
