package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		Int(0), Int(1), Int(-1), Int(1 << 40), Int(-(1 << 40)),
		Str(""), Str("hello"), Str("with \x00 bytes"),
		Float(0), Float(-2.5), Float(1e300),
		Bool(true), Bool(false),
		List(), List(Int(1), Str("a"), List(Float(2.5))),
	}
	for _, v := range vals {
		b := AppendValue(nil, v)
		got, n, err := DecodeValue(b)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(b) {
			t.Errorf("decode %v consumed %d of %d bytes", v, n, len(b))
		}
		if !got.Equal(v) || got.Kind != v.Kind {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	ts := []Tuple{
		NewTuple("link", Str("a"), Str("b"), Int(1)),
		NewTuple("empty"),
		NewTuple("path", Str("a"), Str("c"), List(Str("a"), Str("b"), Str("c")), Int(7)).Says("alice"),
	}
	for _, tu := range ts {
		b := EncodeTuple(tu)
		got, n, err := DecodeTuple(b)
		if err != nil {
			t.Fatalf("decode %v: %v", tu, err)
		}
		if n != len(b) {
			t.Errorf("consumed %d of %d", n, len(b))
		}
		if !got.Equal(tu) {
			t.Errorf("round trip %v -> %v", tu, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty buffer should fail")
	}
	if _, _, err := DecodeValue([]byte{99}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindFloat), 1, 2}); err == nil {
		t.Error("short float should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString), 10, 'a'}); err == nil {
		t.Error("short string should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindList), 200, 1}); err == nil {
		t.Error("absurd list count should fail")
	}
	if _, _, err := DecodeTuple([]byte{}); err == nil {
		t.Error("empty tuple buffer should fail")
	}
	// Truncated tuple: valid pred, then nothing.
	b := AppendString(nil, "pred")
	if _, _, err := DecodeTuple(b); err == nil {
		t.Error("truncated tuple should fail")
	}
}

func TestMultipleValuesSequential(t *testing.T) {
	var b []byte
	in := []Value{Int(5), Str("x"), List(Int(1))}
	for _, v := range in {
		b = AppendValue(b, v)
	}
	off := 0
	for i, want := range in {
		got, n, err := DecodeValue(b[off:])
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("value %d: got %v want %v", i, got, want)
		}
		off += n
	}
	if off != len(b) {
		t.Errorf("leftover bytes: %d", len(b)-off)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, p := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, 1000)} {
		b := AppendBytes(nil, p)
		got, n, err := DecodeBytes(b)
		if err != nil || n != len(b) || len(got) != len(p) {
			t.Fatalf("bytes round trip len=%d: got %d bytes, n=%d, err=%v", len(p), len(got), n, err)
		}
	}
}

func TestQuickValueRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 4)
		b := AppendValue(nil, v)
		got, n, err := DecodeValue(b)
		return err == nil && n == len(b) && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6)
		args := make([]Value, n)
		for i := range args {
			args[i] = randomValue(r, 3)
		}
		tu := Tuple{Pred: "p", Args: args}
		if r.Intn(2) == 0 {
			tu.Asserter = "alice"
		}
		b := EncodeTuple(tu)
		got, m, err := DecodeTuple(b)
		return err == nil && m == len(b) && got.Equal(tu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeValueDepthLimit pins the nesting bound: a list nested
// maxValueDepth deep decodes, one level more is ErrCorrupt — the decoder
// recurses per level and runs on unauthenticated input.
func TestDecodeValueDepthLimit(t *testing.T) {
	nested := func(depth int) []byte {
		v := Int(7)
		for i := 0; i < depth; i++ {
			v = List(v)
		}
		return AppendValue(nil, v)
	}
	atLimit := nested(maxValueDepth)
	if _, n, err := DecodeValue(atLimit); err != nil || n != len(atLimit) {
		t.Errorf("depth %d: n=%d err=%v, want a full decode", maxValueDepth, n, err)
	}
	if _, _, err := DecodeValue(nested(maxValueDepth + 1)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("depth %d: err = %v, want ErrCorrupt", maxValueDepth+1, err)
	}
	// The same bound holds for a tuple argument, and far past it: 1 MiB
	// of 2-byte list headers is an error, not a deep recursion.
	deep := bytes.Repeat([]byte{byte(KindList), 1}, 1<<19)
	tu := append(AppendString(AppendString(nil, "p"), ""), 1)
	if _, _, err := DecodeTuple(append(tu, deep...)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("1 MiB of list headers: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeHostileCounts pins that a count is not believed before the
// elements are there: a tuple arity and a list count that the payload is
// just large enough to make plausible, in front of 8 MiB of bytes that
// are no values, are rejected having allocated next to nothing (the
// decoders used to reserve 72 bytes an announced element, 288 MiB here),
// and a count the payload cannot hold is rejected outright.
func TestDecodeHostileCounts(t *testing.T) {
	const size = 8 << 20
	filler := bytes.Repeat([]byte{0xff}, size) // 0xff is no value kind
	claim := func(header []byte, count uint64) []byte {
		return append(binary.AppendUvarint(header, count), filler...)
	}
	tupleHeader := AppendString(AppendString(nil, "p"), "")
	cases := []struct {
		name   string
		decode func(b []byte) error
		header []byte
	}{
		{"tuple arity", func(b []byte) error { _, _, err := DecodeTuple(b); return err }, tupleHeader},
		{"list count", func(b []byte) error { _, _, err := DecodeValue(b); return err }, []byte{byte(KindList)}},
	}
	for _, c := range cases {
		for _, count := range []uint64{size / minValueSize, size/minValueSize + 1, 1 << 62} {
			payload := claim(c.header, count)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode(payload)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s %d: err = %v, want ErrCorrupt", c.name, count, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("%s %d: allocated %d bytes before rejecting, want < 1 MiB", c.name, count, got)
			}
		}
	}
}
