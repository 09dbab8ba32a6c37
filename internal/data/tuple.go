package data

import (
	"slices"
	"strconv"
	"strings"
)

// Tuple is a fact: a predicate name applied to a list of values. In a
// SeNDlog network every tuple is asserted by a security principal (the
// "says" operator); Asserter records that principal, or is empty in plain
// NDlog mode.
type Tuple struct {
	// Pred is the predicate (relation) name, e.g. "link" or "reachable".
	Pred string
	// Args are the attribute values.
	Args []Value
	// Asserter is the principal that says this tuple ("" when
	// authentication is disabled).
	Asserter string
}

// NewTuple builds a tuple from a predicate name and values.
func NewTuple(pred string, args ...Value) Tuple {
	return Tuple{Pred: pred, Args: args}
}

// Says returns a copy of t asserted by the given principal.
func (t Tuple) Says(principal string) Tuple {
	t2 := t
	t2.Asserter = principal
	return t2
}

// WithoutAsserter returns a copy of t with the asserter cleared.
func (t Tuple) WithoutAsserter() Tuple {
	t2 := t
	t2.Asserter = ""
	return t2
}

// Equal reports whether two tuples have the same predicate, asserter and
// pairwise-equal arguments.
func (t Tuple) Equal(o Tuple) bool {
	if t.Pred != o.Pred || t.Asserter != o.Asserter || len(t.Args) != len(o.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical injective string encoding of the tuple, suitable
// for use as a map key. Tuples are Equal iff their keys are equal.
func (t Tuple) Key() string {
	return string(t.AppendKey(make([]byte, 0, 16+8*len(t.Args))))
}

// AppendKey appends the bytes of Key to b.
func (t Tuple) AppendKey(b []byte) []byte {
	b = appendKeyString(b, t.Pred)
	b = appendKeyString(b, t.Asserter)
	for _, v := range t.Args {
		b = v.appendKey(b)
	}
	return b
}

// ValueKey returns a key covering only the projected columns cols, prefixed
// with the predicate name. It is used for group-by and primary keys.
func (t Tuple) ValueKey(cols []int) string {
	b := make([]byte, 0, 16+8*len(cols))
	b = appendKeyString(b, t.Pred)
	b = appendKeyString(b, t.Asserter)
	for _, c := range cols {
		b = t.Args[c].appendKey(b)
	}
	return string(b)
}

func appendKeyString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, '|')
	b = append(b, s...)
	return b
}

// String renders the tuple as NDlog syntax, prefixed with "P says" when an
// asserter is present, e.g. `b says reachable(b, c)`.
func (t Tuple) String() string {
	var buf [96]byte
	return string(t.AppendText(buf[:0]))
}

// AppendText appends the tuple's String rendering to b.
func (t Tuple) AppendText(b []byte) []byte {
	if t.Asserter != "" {
		b = append(b, t.Asserter...)
		b = append(b, " says "...)
	}
	b = append(b, t.Pred...)
	b = append(b, '(')
	for i, a := range t.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = a.appendText(b)
	}
	return append(b, ')')
}

// Clone returns a deep copy of the tuple (argument slice and nested lists
// are copied).
func (t Tuple) Clone() Tuple {
	t2 := t
	t2.Args = cloneValues(t.Args)
	return t2
}

func cloneValues(vs []Value) []Value {
	if vs == nil {
		return nil
	}
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = v
		if v.Kind == KindList {
			out[i].List = cloneValues(v.List)
		}
	}
	return out
}

// CompareTuples is the total order of tuples: predicate, asserter, then
// the arguments pairwise by Value.Compare (shorter argument list first).
// Value.Compare is numeric, so Int 1 ties with Float 1.0 (and two ints
// beyond 2^53 tie through their float forms); such ties are broken by
// kind, then by the exact integer, so that tuples which are not
// bit-identical never compare 0 and a sort has exactly one result
// whatever order its input arrived in. NaN stays unordered, as in
// Value.Compare.
func CompareTuples(a, b Tuple) int {
	if c := strings.Compare(a.Pred, b.Pred); c != 0 {
		return c
	}
	if c := strings.Compare(a.Asserter, b.Asserter); c != 0 {
		return c
	}
	n := min(len(a.Args), len(b.Args))
	for i := 0; i < n; i++ {
		if c := a.Args[i].Compare(b.Args[i]); c != 0 {
			return c
		}
	}
	if len(a.Args) != len(b.Args) {
		if len(a.Args) < len(b.Args) {
			return -1
		}
		return 1
	}
	for i := range a.Args {
		if c := tieBreak(a.Args[i], b.Args[i]); c != 0 {
			return c
		}
	}
	return 0
}

// tieBreak orders two values that Value.Compare ties.
func tieBreak(a, b Value) int {
	switch {
	case a.Kind != b.Kind:
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	case a.Kind == KindInt && a.Int != b.Int:
		if a.Int < b.Int {
			return -1
		}
		return 1
	case a.Kind == KindList:
		for i := range a.List { // Compare tied, so the lengths agree
			if c := tieBreak(a.List[i], b.List[i]); c != 0 {
				return c
			}
		}
	}
	return 0
}

// SortTuples sorts tuples by CompareTuples. It is used to produce
// deterministic output in views, tools and tests.
func SortTuples(ts []Tuple) {
	if len(ts) <= 24 {
		insertionSortTuples(ts)
		return
	}
	slices.SortFunc(ts, CompareTuples)
}

func insertionSortTuples(ts []Tuple) {
	// Small slices keep the branch-friendly insertion sort; large ones
	// (whole-table view snapshots) would go quadratic on it, so they fall
	// through to slices.SortFunc above.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && CompareTuples(ts[j], ts[j-1]) < 0; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
