// Package data defines the typed values and tuples that flow through a
// declarative network, together with a compact binary wire codec. Every
// higher layer (the NDlog engine, the provenance subsystem, the simulated
// transport) is built on these types, and the bandwidth numbers reported by
// the experiment harness are the exact sizes produced by this codec.
package data

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds supported by the engine. NDlog programs manipulate
// integers (costs, counters), strings (node addresses, principal names),
// floats (rates), and lists (paths).
const (
	KindInt Kind = iota
	KindFloat
	KindBool
	KindString
	KindList
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindFloat:
		return "float"
	case KindList:
		return "list"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed constant. The zero value is the integer 0.
//
// Value is a small struct passed by value; lists share their backing slice,
// which callers must treat as immutable once the value is constructed.
type Value struct {
	Kind Kind
	// Int holds the payload for KindInt and KindBool (0 or 1).
	Int int64
	// Float holds the payload for KindFloat.
	Float float64
	// Str holds the payload for KindString.
	Str string
	// List holds the payload for KindList.
	List []Value
}

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, Int: i} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, Float: f} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{Kind: KindBool, Int: 1}
	}
	return Value{Kind: KindBool}
}

// List returns a list value holding vs. The slice is used directly.
func List(vs ...Value) Value { return Value{Kind: KindList, List: vs} }

// Strings returns a list value of strings, convenient for path values.
func Strings(ss ...string) Value {
	vs := make([]Value, len(ss))
	for i, s := range ss {
		vs[i] = Str(s)
	}
	return List(vs...)
}

// IsTrue reports whether v is truthy: a true bool, a non-zero number, a
// non-empty string or list.
func (v Value) IsTrue() bool {
	switch v.Kind {
	case KindBool, KindInt:
		return v.Int != 0
	case KindFloat:
		return v.Float != 0
	case KindString:
		return v.Str != ""
	case KindList:
		return len(v.List) > 0
	default:
		return false
	}
}

// Equal reports deep equality of two values. Values of different kinds are
// never equal, except that int and float compare numerically equal when they
// denote the same number.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		if (v.Kind == KindInt && o.Kind == KindFloat) || (v.Kind == KindFloat && o.Kind == KindInt) {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.Kind {
	case KindInt, KindBool:
		return v.Int == o.Int
	case KindFloat:
		return v.Float == o.Float
	case KindString:
		return v.Str == o.Str
	case KindList:
		if len(v.List) != len(o.List) {
			return false
		}
		for i := range v.List {
			if !v.List[i].Equal(o.List[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders values: first by kind (with int/float compared numerically
// against each other), then by payload. It returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	if numeric(v.Kind) && numeric(o.Kind) {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindBool:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(v.Str, o.Str)
	case KindList:
		n := len(v.List)
		if len(o.List) < n {
			n = len(o.List)
		}
		for i := 0; i < n; i++ {
			if c := v.List[i].Compare(o.List[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(v.List) < len(o.List):
			return -1
		case len(v.List) > len(o.List):
			return 1
		}
		return 0
	default:
		return 0
	}
}

// AsFloat converts a numeric value to float64; non-numeric values yield NaN.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindBool:
		return float64(v.Int)
	case KindFloat:
		return v.Float
	default:
		return math.NaN()
	}
}

// AsInt converts a numeric value to int64 (truncating floats); non-numeric
// values yield 0.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt, KindBool:
		return v.Int
	case KindFloat:
		return int64(v.Float)
	default:
		return 0
	}
}

// String renders the value in NDlog literal syntax.
func (v Value) String() string {
	var buf [32]byte
	return string(v.appendText(buf[:0]))
}

// appendText appends v in NDlog literal syntax to b: the one renderer
// behind Value.String and Tuple.AppendText.
func (v Value) appendText(b []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(b, v.Int, 10)
	case KindBool:
		return strconv.AppendBool(b, v.Int != 0)
	case KindFloat:
		return strconv.AppendFloat(b, v.Float, 'g', -1, 64)
	case KindString:
		return appendQuotedIfNeeded(b, v.Str)
	case KindList:
		b = append(b, '[')
		for i, e := range v.List {
			if i > 0 {
				b = append(b, ',')
			}
			b = e.appendText(b)
		}
		return append(b, ']')
	default:
		return append(b, '?')
	}
}

// appendQuotedIfNeeded appends s bare when it looks like an NDlog
// constant identifier (lower-case start, alphanumeric) and quoted
// otherwise.
func appendQuotedIfNeeded(b []byte, s string) []byte {
	if s == "" {
		return append(b, `""`...)
	}
	bare := s[0] >= 'a' && s[0] <= 'z'
	if bare {
		for i := 0; i < len(s); i++ {
			c := s[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == ':') {
				bare = false
				break
			}
		}
	}
	if bare {
		return append(b, s...)
	}
	return strconv.AppendQuote(b, s)
}

// appendKey appends a canonical, injective encoding of v to b. Two values
// are Equal iff their key encodings are byte-identical, except that ints and
// floats denoting the same number encode identically (both as the float
// form) so that key equality matches Equal.
func (v Value) appendKey(b []byte) []byte {
	switch v.Kind {
	case KindInt:
		// Encode as float when exactly representable so 2 == 2.0 share keys;
		// int64 values beyond 2^53 fall back to an exact integer form.
		f := float64(v.Int)
		if int64(f) == v.Int {
			b = append(b, 'f')
			b = strconv.AppendFloat(b, f, 'b', -1, 64)
		} else {
			b = append(b, 'i')
			b = strconv.AppendInt(b, v.Int, 36)
		}
	case KindBool:
		b = append(b, 'b', byte('0'+v.Int))
	case KindFloat:
		b = append(b, 'f')
		b = strconv.AppendFloat(b, v.Float, 'b', -1, 64)
	case KindString:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.Str)), 10)
		b = append(b, ':')
		b = append(b, v.Str...)
	case KindList:
		b = append(b, 'l')
		b = strconv.AppendInt(b, int64(len(v.List)), 10)
		b = append(b, ':')
		for _, e := range v.List {
			b = e.appendKey(b)
		}
	}
	return b
}

// Key returns the canonical key encoding of v as a string, usable as a map
// key.
func (v Value) Key() string { return string(v.appendKey(nil)) }
