package data

import (
	"fmt"
	"testing"
)

// TestHashMatchesEqual pins the hash/equality contract: Equal values and
// tuples must hash identically, including the int/float numeric
// unification that Key() encodes (2 and 2.0 are Equal, so they must share
// a hash), and distinct values should in practice not collide at full
// hash width.
func TestHashMatchesEqual(t *testing.T) {
	vals := []Value{
		Int(0), Int(2), Int(-7), Int(1 << 60), Int((1 << 60) + 1),
		Float(0), Float(2), Float(2.5), Float(-7),
		Bool(true), Bool(false),
		Str(""), Str("a"), Str("ab"), Str("b"),
		List(), List(Int(1)), List(Int(1), Int(2)), List(Str("a"), List(Int(2))),
		Strings("n1", "n2", "n3"),
	}
	for i, a := range vals {
		for j, b := range vals {
			eq, heq := a.Equal(b), a.Hash() == b.Hash()
			if eq && !heq {
				t.Errorf("vals[%d]=%v Equal vals[%d]=%v but hashes differ", i, a, j, b)
			}
			if !eq && heq && i != j {
				t.Errorf("vals[%d]=%v and vals[%d]=%v collide at full width", i, a, j, b)
			}
		}
	}
	// The deliberate unification: 2 == 2.0 share a hash. For ints beyond
	// 2^53 the hash mirrors Key(), which switches to an exact integer
	// encoding — hash equality tracks key equality, the map semantics.
	if Int(2).Hash() != Float(2).Hash() {
		t.Error("Int(2) and Float(2) are Equal but hash differently")
	}
	big := int64(1<<62) + 1
	if Int(big).Key() == Float(float64(big)).Key() {
		t.Fatalf("test premise broken: %d should key differently from its float rounding", big)
	}
	if Int(big).Hash() == Float(float64(big)).Hash() {
		t.Errorf("Int(%d) hash-collides with its inexact float form", big)
	}
}

// TestTupleHashMatchesEqual covers the tuple-level contract including
// asserters and key-column projections.
func TestTupleHashMatchesEqual(t *testing.T) {
	a := NewTuple("link", Str("n1"), Str("n2"), Int(3))
	b := NewTuple("link", Str("n1"), Str("n2"), Float(3))
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Errorf("int/float unified tuples must be Equal with equal hashes")
	}
	c := a.Says("n1")
	if a.Hash() == c.Hash() {
		t.Error("asserter must feed the tuple hash")
	}
	d := NewTuple("cost", Str("n1"), Str("n2"), Int(3))
	if a.Hash() == d.Hash() {
		t.Error("predicate must feed the tuple hash")
	}
	// HashCols mirrors ValueKey: same projection, same hash ⟺ same key.
	cols := []int{0, 1}
	e := NewTuple("link", Str("n1"), Str("n2"), Int(99))
	if a.ValueKey(cols) != e.ValueKey(cols) {
		t.Fatal("premise: projections should agree")
	}
	if a.HashCols(cols) != e.HashCols(cols) {
		t.Error("HashCols must agree when ValueKey agrees")
	}
	if a.HashCols([]int{2}) == e.HashCols([]int{2}) {
		t.Error("HashCols must differ on differing projected columns")
	}
	// HashValues is the probe-side twin of HashCols' column fold only in
	// bucket terms: pairwise-Equal slices agree.
	if HashValues([]Value{Int(3)}) != HashValues([]Value{Float(3)}) {
		t.Error("HashValues must unify int/float like Equal does")
	}
}

// TestLimitHashBitsForTesting verifies the collision-forcing hook used by
// the engine's bucket-fallback tests.
func TestLimitHashBitsForTesting(t *testing.T) {
	restore := LimitHashBitsForTesting(1)
	defer restore()
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		h := NewTuple("p", Int(int64(i))).Hash()
		if h > 1 {
			t.Fatalf("hash %d exceeds 1-bit mask", h)
		}
		seen[h] = true
	}
	if len(seen) != 2 {
		t.Fatalf("expected both buckets populated, got %v", seen)
	}
	restore()
	if NewTuple("p", Int(1)).Hash() <= 1 {
		t.Fatal("restore did not lift the mask")
	}

	// The mask keeps the low bits, so they must depend on every bit of a
	// small int, a float and a short string: at 4 bits each family below
	// fills all 16 buckets, as a value and as a tuple's only argument.
	defer LimitHashBitsForTesting(4)()
	families := map[string][]Value{}
	for i := 0; i < 64; i++ {
		families["Int(0..63)"] = append(families["Int(0..63)"], Int(int64(i)))
		families["Float(0..63)"] = append(families["Float(0..63)"], Float(float64(i)))
	}
	for i := 0; i < 80; i++ {
		families["n0..n79"] = append(families["n0..n79"], Str(fmt.Sprintf("n%d", i)))
	}
	for name, vals := range families {
		values, tuples := map[uint64]bool{}, map[uint64]bool{}
		for _, v := range vals {
			values[v.Hash()] = true
			tuples[NewTuple("p", v).Hash()] = true
		}
		if len(values) != 16 || len(tuples) != 16 {
			t.Errorf("%s fills %d of 16 buckets as values and %d as tuples", name, len(values), len(tuples))
		}
	}
}
