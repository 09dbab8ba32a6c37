// Package keystringtest exercises the keystring analyzer: Tuple.Key
// and Value.Key calls are flagged outside the configured contract
// functions.
package keystringtest

import "provnet/internal/data"

func badTuple(t data.Tuple) string {
	return t.Key() // want "outside the wire codec"
}

func badValue(v data.Value) string {
	return v.Key() // want "outside the wire codec"
}

func badAppend(t data.Tuple, b []byte) []byte {
	return t.AppendKey(b) // want "outside the wire codec"
}

// KeyOf is allowed by the test config's KeyStringFuncs entry, the same
// shape that admits provenance.KeyOf in the repo config.
func KeyOf(t data.Tuple) string {
	return t.Key()
}

func equalFine(a, b data.Tuple) bool { return a.Equal(b) }

func hashFine(t data.Tuple) uint64 { return t.Hash() }

func otherKeyFine(m interface{ Key() string }) string {
	return m.Key()
}
