package data

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzSymbols is the table FuzzDecodeWithSymbols decodes through: short
// names like the ones frames carry, and the empty string.
var fuzzSymbols = []string{"", "p", "path", "link", "n1", "n2", "alice"}

// decodeRun decodes tuples from b through one Decoder until the input
// ends or a tuple fails, like the items of a frame, returning each step's
// byte count, the first error, and the run's tuples.
func decodeRun(b []byte, syms *Symbols) (ns []int, err error, ts []Tuple) {
	d := NewDecoder(syms)
	defer d.Release()
	for len(b) > 0 {
		var n int
		if n, err = d.Tuple(b); err != nil {
			break
		}
		ns = append(ns, n)
		b = b[n:]
	}
	return ns, err, append([]Tuple(nil), d.Tuples()...)
}

// sameTuple reports whether two decodings agree: Equal, and encoding to
// the same bytes. A NaN is Equal to nothing, itself included, so a tuple
// holding one is held to its encoding alone.
func sameTuple(a, b Tuple) bool {
	return (a.Equal(b) || !b.Equal(b)) && bytes.Equal(EncodeTuple(a), EncodeTuple(b))
}

// FuzzDecodeWithSymbols cross-checks the symbol-table decode against the
// table-less one on arbitrary bytes: every tuple of a run must decode to
// the same byte count with the same error, the tuples must be Equal and
// re-encode identically, and the table must not grow.
func FuzzDecodeWithSymbols(f *testing.F) {
	var run []byte
	for _, tu := range []Tuple{
		NewTuple("path", Str("n1"), Str("n2"), Strings("n1", "x", "n2"), Int(7)),
		NewTuple("link", Str("n1"), Str("zz"), Float(2.5)).Says("alice"),
		NewTuple("q", Bool(true), List(), List(List(Str("p")))),
		NewTuple("empty"),
	} {
		enc := EncodeTuple(tu)
		f.Add(enc)
		run = append(run, enc...)
	}
	f.Add(run)
	f.Add(append(run[:len(run)-3:len(run)-3], 0xff))
	f.Add([]byte{1, 'p', 0, 3, byte(KindList), 200, 1})
	syms := NewSymbols(fuzzSymbols)
	f.Fuzz(func(t *testing.T, b []byte) {
		before := len(syms.m)
		wantN, wantErr, want := decodeRun(b, nil)
		gotN, gotErr, got := decodeRun(b, syms)
		if len(syms.m) != before {
			t.Fatalf("the table grew from %d to %d", before, len(syms.m))
		}
		if len(gotN) != len(wantN) || (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("with the table: %v, %v; without: %v, %v", gotN, gotErr, wantN, wantErr)
		}
		for i := range want {
			if gotN[i] != wantN[i] || !sameTuple(got[i], want[i]) {
				t.Fatalf("tuple %d: with the table %v (%d bytes), without %v (%d bytes)", i, got[i], gotN[i], want[i], wantN[i])
			}
		}
		if len(want) == 0 {
			return
		}
		// DecodeTuple is the same decoder without a table.
		if tu, n, err := DecodeTuple(b); err != nil || n != wantN[0] || !sameTuple(tu, want[0]) {
			t.Fatalf("DecodeTuple: %v, %d, %v; the run's first: %v, %d", tu, n, err, want[0], wantN[0])
		}
	})
}

// TestDecodedValuesDoNotAlias pins the three-index cut of a run's one
// backing array: appending to one decoded tuple's Args, or to one decoded
// list, leaves every other tuple of the run byte-identical.
func TestDecodedValuesDoNotAlias(t *testing.T) {
	in := []Tuple{
		NewTuple("path", Str("a"), Strings("a", "b"), Int(1)),
		NewTuple("path", Str("b"), Strings("b", "c", "d"), Int(2)),
		NewTuple("path", Str("c"), List(Strings("c"), Strings()), Int(3)),
	}
	var b []byte
	for _, tu := range in {
		b = AppendTuple(b, tu)
	}
	d := NewDecoder(NewSymbols([]string{"a", "b", "path"}))
	defer d.Release()
	for off := 0; off < len(b); {
		n, err := d.Tuple(b[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
	}
	ts := append([]Tuple(nil), d.Tuples()...)
	encode := func() [][]byte {
		var out [][]byte
		for _, tu := range ts {
			out = append(out, EncodeTuple(tu))
		}
		return out
	}
	want := encode()
	for i, tu := range ts {
		if !tu.Equal(in[i]) {
			t.Fatalf("tuple %d decoded as %v, want %v", i, tu, in[i])
		}
	}
	grown := append(ts[0].Args, Str("clobber"))
	list := append(ts[1].Args[1].List, Str("clobber"))
	nested := append(ts[2].Args[1].List[0].List, Str("clobber"))
	got := encode()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("tuple %d changed under an append to a neighbour: %v", i, ts[i])
		}
	}
	if len(grown) != 4 || len(list) != 4 || len(nested) != 2 {
		t.Fatalf("appends lost: %v %v %v", grown, list, nested)
	}
}

// TestDecoderRunSurvivesABadTuple pins that a tuple that fails to decode
// leaves the run as it was: the tuples before it are whole.
func TestDecoderRunSurvivesABadTuple(t *testing.T) {
	good := NewTuple("p", Strings("x", "y"), Int(1))
	d := NewDecoder(nil)
	defer d.Release()
	if _, err := d.Tuple(EncodeTuple(good)); err != nil {
		t.Fatal(err)
	}
	bad := EncodeTuple(NewTuple("p", List(Int(1), Int(2))))
	if _, err := d.Tuple(bad[:len(bad)-1]); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("truncated tuple: err = %v", err)
	}
	ts := d.Tuples()
	if len(ts) != 1 || !ts[0].Equal(good) {
		t.Fatalf("run after a bad tuple: %v, want [%v]", ts, good)
	}
}

// TestLenderKeepsToItself pins what a lender lends. A lent run is cut
// from the lender's arena as a run is from its one array: every tuple's
// Args and every list capacity-limited, so appending to one leaves every
// other tuple of the run byte-identical, as TestDecodedValuesDoNotAlias
// holds for a run. And a lender never lends to a caller of the pool
// (DecodeTuple, DecodeValue, the store log's replay), even once it is
// released: their values survive the Reclaim that poisons every lent
// one.
func TestLenderKeepsToItself(t *testing.T) {
	in := []Tuple{
		NewTuple("path", Str("a"), Strings("a", "b"), Int(1)),
		NewTuple("path", Str("b"), Strings("b", "c", "d"), Int(2)),
		NewTuple("path", Str("c"), List(Strings("c"), Strings()), Int(3)),
	}
	l := NewLender(NewSymbols([]string{"a", "b", "path"}))
	var ts []Tuple
	for round := 0; round < 2; round++ { // the second run is cut after the first
		for _, tu := range in {
			if _, err := l.Tuple(EncodeTuple(tu)); err != nil {
				t.Fatal(err)
			}
		}
		ts = append(ts, l.Tuples()...)
	}
	for i, tu := range ts {
		if !tu.Equal(in[i%len(in)]) {
			t.Fatalf("lent tuple %d decoded as %v, want %v", i, tu, in[i%len(in)])
		}
	}
	var want [][]byte
	for _, tu := range ts {
		want = append(want, EncodeTuple(tu))
	}
	for i := range ts {
		grown := append(ts[i].Args, Str("clobber"))
		list := append(ts[i].Args[1].List, Str("clobber"))
		if len(grown) != 4 || len(list) != len(ts[i].Args[1].List)+1 {
			t.Fatalf("appends lost: %v %v", grown, list)
		}
	}
	nested := append(ts[2].Args[1].List[0].List, Str("clobber"))
	if len(nested) != 2 {
		t.Fatalf("append lost: %v", nested)
	}
	for i, tu := range ts {
		if !bytes.Equal(EncodeTuple(tu), want[i]) {
			t.Fatalf("lent tuple %d changed under an append to a neighbour: %v", i, tu)
		}
	}

	l.Release() // a lender is left to the collector, never pooled
	var pooled []Tuple
	var values []Value
	for i := 0; i < 64; i++ {
		tu, _, err := DecodeTuple(EncodeTuple(in[i%len(in)]))
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := DecodeValue(AppendValue(nil, in[i%len(in)].Args[1]))
		if err != nil {
			t.Fatal(err)
		}
		pooled, values = append(pooled, tu), append(values, v)
	}
	poison := Str("\x00poison")
	l.Reclaim(&poison)
	if !ts[0].Args[0].Equal(poison) {
		t.Fatalf("Reclaim left a lent value as it was: %v", ts[0])
	}
	for i, tu := range pooled {
		if !tu.Equal(in[i%len(in)]) || !values[i].Equal(in[i%len(in)].Args[1]) {
			t.Fatalf("decode %d after a lender's release read %v and %v once it reclaimed: a pooled decoder lent its arena", i, tu, values[i])
		}
	}
}
