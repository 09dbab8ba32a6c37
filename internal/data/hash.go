package data

import (
	"math"
	"sync/atomic"
)

// Structural 64-bit hashing for values and tuples. These hashes are the
// allocation-free replacement for the materialized Key()/ValueKey()
// strings on the hot path: tables, join indexes, aggregate groups and
// the retraction sets all key on hash buckets with an equality check
// along each bucket's chain instead of strings. Where a destination
// string takes part (a withdrawal), the chain compares it too: nothing maps symbols to ids. Kind tags
// take an FNV-1a byte round; words — numbers, lengths, and strings eight
// bytes at a time — take one multiply/xor-shift mix each, whose last
// xor-shift carries the high bits down so that the low bits a masked hash
// keeps depend on the whole word.
//
// The contract mirrors the key encodings exactly: if two values are Equal
// their hashes are equal (in particular an int that is exactly
// representable as a float64 hashes as its float form, so Int(2) and
// Float(2.0) collide on purpose, just as their Key() encodings are
// byte-identical). The converse does not hold — distinct values may
// collide — so every hash-keyed structure checks Equal along a bucket.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// testHashMask restricts hashes to a few low bits under test so collision
// fallbacks are exercised; ^0 in production. Accessed atomically so -race
// tests can flip it around concurrent hashing.
var testHashMask atomic.Uint64

func init() { testHashMask.Store(^uint64(0)) }

// LimitHashBitsForTesting restricts every structural hash to its low n
// bits, forcing bucket collisions so tests can verify the equality
// fallback. It returns a restore func; production code never calls this.
func LimitHashBitsForTesting(n uint) (restore func()) {
	prev := testHashMask.Load()
	testHashMask.Store((uint64(1) << n) - 1)
	return func() { testHashMask.Store(prev) }
}

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func hashWord(h uint64, v uint64) uint64 {
	h ^= v
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// hashStr folds s in eight-byte words. The last word holds the tail
// bytes and, in its top byte, the length, so strings that differ only by
// trailing zero bytes still differ.
func hashStr(h uint64, s string) uint64 {
	n := len(s)
	for ; len(s) >= 8; s = s[8:] {
		h = hashWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	w := uint64(n) << 56
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return hashWord(h, w)
}

// hashInto folds v's structural encoding into h. The per-kind tag bytes
// and the int→float unification mirror appendKey.
func (v Value) hashInto(h uint64) uint64 {
	switch v.Kind {
	case KindInt:
		f := float64(v.Int)
		if int64(f) == v.Int {
			h = hashByte(h, 'f')
			h = hashWord(h, math.Float64bits(f))
		} else {
			h = hashByte(h, 'i')
			h = hashWord(h, uint64(v.Int))
		}
	case KindFloat:
		h = hashByte(h, 'f')
		h = hashWord(h, math.Float64bits(v.Float))
	case KindBool:
		h = hashByte(h, 'b')
		h = hashByte(h, byte(v.Int))
	case KindString:
		h = hashByte(h, 's')
		h = hashStr(h, v.Str)
	case KindList:
		h = hashByte(h, 'l')
		h = hashWord(h, uint64(len(v.List)))
		for _, e := range v.List {
			h = e.hashInto(h)
		}
	}
	return h
}

// Hash returns the structural hash of a value. Equal values hash equally
// (including int/float numeric unification).
func (v Value) Hash() uint64 {
	return v.hashInto(fnvOffset64) & testHashMask.Load()
}

// Hash returns the structural hash of the whole tuple: predicate,
// asserter, and every argument. Tuples that are Equal hash equally.
func (t Tuple) Hash() uint64 {
	h := hashStr(fnvOffset64, t.Pred)
	h = hashStr(h, t.Asserter)
	for _, v := range t.Args {
		h = v.hashInto(h)
	}
	return h & testHashMask.Load()
}

// HashCols returns the structural hash of the projection mirrored by
// ValueKey: predicate, asserter, then the selected columns in order.
func (t Tuple) HashCols(cols []int) uint64 {
	h := hashStr(fnvOffset64, t.Pred)
	h = hashStr(h, t.Asserter)
	for _, c := range cols {
		h = t.Args[c].hashInto(h)
	}
	return h & testHashMask.Load()
}

// HashArgs folds the selected argument columns (no predicate or
// asserter) into one hash. It equals HashValues(vals) whenever vals is
// pairwise Equal to the projected columns — the index-build twin of a
// join probe.
func (t Tuple) HashArgs(cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h = t.Args[c].hashInto(h)
	}
	return h & testHashMask.Load()
}

// HashValues folds a sequence of values into one hash — the probe-side
// twin of hashing an entry's indexed columns. Two value slices with
// pairwise-Equal elements hash equally.
func HashValues(vals []Value) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h = v.hashInto(h)
	}
	return h & testHashMask.Load()
}
