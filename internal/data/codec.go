package data

import (
	"encoding/binary"
	"errors"
	"math"
)

// The wire codec is a compact, deterministic binary encoding used for every
// byte that crosses a simulated link. The experiment harness reports
// bandwidth as the exact sum of encoded message sizes, so the codec is the
// ground truth for Figure 4.
//
// Layout:
//
//	value  := kind:uint8 payload
//	int    -> zigzag varint
//	bool   -> uint8
//	float  -> 8-byte little-endian IEEE 754
//	string -> uvarint length, bytes
//	list   -> uvarint count, values (nested at most maxValueDepth deep)
//	tuple  := string(pred) string(asserter) uvarint(arity) values

var (
	// ErrShortBuffer is returned when decoding runs out of input.
	ErrShortBuffer = errors.New("data: short buffer")
	// ErrCorrupt is returned when decoding meets an invalid encoding.
	ErrCorrupt = errors.New("data: corrupt encoding")
)

// AppendValue appends the wire encoding of v to b and returns the result.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		b = binary.AppendVarint(b, v.Int)
	case KindBool:
		b = append(b, byte(v.Int&1))
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float))
	case KindString:
		b = AppendString(b, v.Str)
	case KindList:
		b = binary.AppendUvarint(b, uint64(len(v.List)))
		for _, e := range v.List {
			b = AppendValue(b, e)
		}
	}
	return b
}

// DecodeValue decodes one value from b, returning it and the number of
// bytes consumed. Lists nested deeper than maxValueDepth are ErrCorrupt.
// It is the Decoder's value path, without a symbol table.
func DecodeValue(b []byte) (Value, int, error) {
	d := NewDecoder(nil)
	defer d.Release()
	n, err := d.value(b, 0)
	if err != nil {
		return Value{}, 0, err
	}
	off := d.close(1)
	return d.finish()[off], n, nil
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeString decodes a length-prefixed string, returning the string and
// bytes consumed.
func DecodeString(b []byte) (string, int, error) {
	return (*Symbols)(nil).DecodeString(b)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// DecodeBytes decodes a length-prefixed byte slice. The returned slice
// aliases b.
func DecodeBytes(b []byte) ([]byte, int, error) {
	l, m := binary.Uvarint(b)
	if m <= 0 {
		return nil, 0, ErrCorrupt
	}
	if uint64(len(b)-m) < l {
		return nil, 0, ErrShortBuffer
	}
	return b[m : m+int(l)], m + int(l), nil
}

// AppendTuple appends the wire encoding of t to b.
func AppendTuple(b []byte, t Tuple) []byte {
	b = AppendString(b, t.Pred)
	b = AppendString(b, t.Asserter)
	b = binary.AppendUvarint(b, uint64(len(t.Args)))
	for _, v := range t.Args {
		b = AppendValue(b, v)
	}
	return b
}

// EncodeTuple returns the wire encoding of t.
func EncodeTuple(t Tuple) []byte { return AppendTuple(nil, t) }

// DecodeTuple decodes one tuple from b, returning it and the bytes consumed.
// It is a Decoder without a symbol table, run for one tuple.
func DecodeTuple(b []byte) (Tuple, int, error) {
	d := NewDecoder(nil)
	defer d.Release()
	n, err := d.Tuple(b)
	if err != nil {
		return Tuple{}, 0, err
	}
	return d.Tuples()[0], n, nil
}
