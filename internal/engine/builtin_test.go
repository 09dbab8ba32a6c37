package engine

import (
	"testing"

	"provnet/internal/data"
)

func call(t *testing.T, name string, args ...data.Value) (data.Value, error) {
	t.Helper()
	fn, ok := Builtins[name]
	if !ok {
		t.Fatalf("unknown builtin %s", name)
	}
	return fn(args, heapList)
}

func heapList(n int) []data.Value { return make([]data.Value, n) }

func wantVal(t *testing.T, got data.Value, err error, want data.Value) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestBuiltinListOps(t *testing.T) {
	a, b, c := data.Str("a"), data.Str("b"), data.Str("c")

	v, err := call(t, "f_init", a, b)
	wantVal(t, v, err, data.List(a, b))

	v, err = call(t, "f_concat", c, data.List(a, b))
	wantVal(t, v, err, data.List(c, a, b))

	v, err = call(t, "f_append", data.List(a), b)
	wantVal(t, v, err, data.List(a, b))

	v, err = call(t, "f_member", data.List(a, b), a)
	wantVal(t, v, err, data.Int(1))
	v, err = call(t, "f_member", data.List(a, b), c)
	wantVal(t, v, err, data.Int(0))

	v, err = call(t, "f_size", data.List(a, b, c))
	wantVal(t, v, err, data.Int(3))

	v, err = call(t, "f_first", data.List(a, b))
	wantVal(t, v, err, a)
	v, err = call(t, "f_last", data.List(a, b))
	wantVal(t, v, err, b)
}

func TestBuiltinNumericOps(t *testing.T) {
	v, err := call(t, "f_min", data.Int(3), data.Int(5))
	wantVal(t, v, err, data.Int(3))
	v, err = call(t, "f_max", data.Int(3), data.Int(5))
	wantVal(t, v, err, data.Int(5))
	v, err = call(t, "f_abs", data.Int(-7))
	wantVal(t, v, err, data.Int(7))
	v, err = call(t, "f_abs", data.Float(-2.5))
	wantVal(t, v, err, data.Float(2.5))
	v, err = call(t, "f_mod", data.Int(17), data.Int(5))
	wantVal(t, v, err, data.Int(2))
}

func TestBuiltinErrors(t *testing.T) {
	cases := []struct {
		name string
		args []data.Value
	}{
		{"f_init", []data.Value{data.Str("a")}},                  // arity
		{"f_concat", []data.Value{data.Str("a"), data.Str("b")}}, // not a list
		{"f_append", []data.Value{data.Str("a"), data.Str("b")}}, // not a list
		{"f_member", []data.Value{data.Str("a"), data.Str("b")}}, // not a list
		{"f_size", []data.Value{data.Int(1)}},                    // not a list
		{"f_first", []data.Value{data.List()}},                   // empty
		{"f_last", []data.Value{data.List()}},                    // empty
		{"f_abs", []data.Value{data.Str("x")}},                   // not numeric
		{"f_mod", []data.Value{data.Int(1), data.Int(0)}},        // div by zero
		{"f_mod", []data.Value{data.Float(1.5), data.Int(2)}},    // not ints
	}
	for _, c := range cases {
		if _, err := Builtins[c.name](c.args, heapList); err == nil {
			t.Errorf("%s(%v) should fail", c.name, c.args)
		}
	}
}

func TestExprEvaluationInRules(t *testing.T) {
	// String concatenation and logical operators through the evaluator.
	e := newNode(t, "a", `
r1 s(@S,R) :- p(@S,A,B), R = A + B.
r2 t(@S) :- p(@S,A,B), (A == "x" && B != "y") || f_size(f_init(A,B)) == 2.
`, false)
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Str("x"), data.Str("z")))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("s"), `s(a, xz)`)
	wantTuples(t, e.Tuples("t"), "t(a)")
}

func TestUnaryOperators(t *testing.T) {
	e := newNode(t, "a", `
r1 q(@S,N) :- p(@S,X), N = -X.
r2 w(@S) :- p(@S,X), !(X > 100).
`, false)
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(5)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("q"), "q(a, -5)")
	wantTuples(t, e.Tuples("w"), "w(a)")
}

func TestComparisonOperatorsAll(t *testing.T) {
	e := newNode(t, "a", `
r1 lt(@S) :- p(@S,X), X < 10.
r2 le(@S) :- p(@S,X), X <= 5.
r3 gt(@S) :- p(@S,X), X > 1.
r4 ge(@S) :- p(@S,X), X >= 5.
r5 eq(@S) :- p(@S,X), X == 5.
r6 ne(@S) :- p(@S,X), X != 6.
`, false)
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(5)))
	e.RunToFixpoint()
	for _, pred := range []string{"lt", "le", "gt", "ge", "eq", "ne"} {
		if e.Count(pred) != 1 {
			t.Errorf("%s did not fire", pred)
		}
	}
}

func TestFloatArithmetic(t *testing.T) {
	e := newNode(t, "a", `r q(@S,Y) :- p(@S,X), Y = X / 2 + 0.25.`, false)
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Float(1.5)))
	e.RunToFixpoint()
	wantTuples(t, e.Tuples("q"), "q(a, 1)")
}

func TestUnknownFunctionKillsBranch(t *testing.T) {
	e := newNode(t, "a", `r q(@S,Y) :- p(@S,X), Y = f_nosuch(X).`, false)
	e.InsertFact(data.NewTuple("p", data.Str("a"), data.Int(1)))
	e.RunToFixpoint()
	if e.Count("q") != 0 {
		t.Fatal("unknown function must not derive")
	}
}
