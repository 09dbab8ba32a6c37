package data

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// maxValueDepth bounds list nesting in decoded values. The decoder
// recurses per level and runs before any signature check, so without a
// bound a few megabytes of list headers overflow the stack. The
// programs' lists are path vectors, depth 1.
const maxValueDepth = 32

// A decoder runs before any signature check, so an element count is an
// attacker's word until the elements have been decoded: valueSlice
// rejects a count the remaining bytes cannot hold at minValueSize bytes a
// value (a kind byte and at least one of payload), and never reserves
// more than maxPresize values ahead of decoding them — past that the
// slice grows with what is actually there.
const (
	minValueSize = 2
	maxPresize   = 64
)

func valueSlice(count uint64, rest []byte) ([]Value, error) {
	if count > uint64(len(rest)/minValueSize) {
		return nil, fmt.Errorf("%w: count %d exceeds payload", ErrCorrupt, count)
	}
	return make([]Value, 0, min(count, maxPresize)), nil
}

// DecodeValue decodes one value from b, returning it and the number of
// bytes consumed. Lists nested deeper than maxValueDepth are ErrCorrupt.
func DecodeValue(b []byte) (Value, int, error) {
	return decodeValue(b, 0)
}

// decodeValue is DecodeValue inside depth enclosing lists.
func decodeValue(b []byte, depth int) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, ErrShortBuffer
	}
	kind := Kind(b[0])
	n := 1
	switch kind {
	case KindInt:
		i, m := binary.Varint(b[n:])
		if m <= 0 {
			return Value{}, 0, ErrCorrupt
		}
		return Int(i), n + m, nil
	case KindBool:
		if len(b) < n+1 {
			return Value{}, 0, ErrShortBuffer
		}
		return Bool(b[n] != 0), n + 1, nil
	case KindFloat:
		if len(b) < n+8 {
			return Value{}, 0, ErrShortBuffer
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))
		return Float(f), n + 8, nil
	case KindString:
		s, m, err := DecodeString(b[n:])
		if err != nil {
			return Value{}, 0, err
		}
		return Str(s), n + m, nil
	case KindList:
		if depth == maxValueDepth {
			return Value{}, 0, fmt.Errorf("%w: lists nested deeper than %d", ErrCorrupt, maxValueDepth)
		}
		cnt, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return Value{}, 0, ErrCorrupt
		}
		n += m
		vs, err := valueSlice(cnt, b[n:])
		if err != nil {
			return Value{}, 0, err
		}
		for i := uint64(0); i < cnt; i++ {
			e, m, err := decodeValue(b[n:], depth+1)
			if err != nil {
				return Value{}, 0, err
			}
			vs = append(vs, e)
			n += m
		}
		return List(vs...), n, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: unknown value kind %d", ErrCorrupt, kind)
	}
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeString decodes a length-prefixed string, returning the string and
// bytes consumed.
func DecodeString(b []byte) (string, int, error) {
	l, m := binary.Uvarint(b)
	if m <= 0 {
		return "", 0, ErrCorrupt
	}
	if uint64(len(b)-m) < l {
		return "", 0, ErrShortBuffer
	}
	return string(b[m : m+int(l)]), m + int(l), nil
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
func DecodeTuple(b []byte) (Tuple, int, error) {
	pred, n, err := DecodeString(b)
	if err != nil {
		return Tuple{}, 0, err
	}
	asserter, m, err := DecodeString(b[n:])
	if err != nil {
		return Tuple{}, 0, err
	}
	n += m
	arity, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return Tuple{}, 0, ErrCorrupt
	}
	n += m
	args, err := valueSlice(arity, b[n:])
	if err != nil {
		return Tuple{}, 0, err
	}
	for i := uint64(0); i < arity; i++ {
		v, m, err := DecodeValue(b[n:])
		if err != nil {
			return Tuple{}, 0, err
		}
		args = append(args, v)
		n += m
	}
	return Tuple{Pred: pred, Asserter: asserter, Args: args}, n, nil
}
