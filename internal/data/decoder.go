package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Symbols is a read-only string table for decoding: a decoded string equal
// to one of its entries comes back as that entry, and the lookup does not
// allocate. A network fills one at construction with its node names and
// its program's predicate names and string constants — nearly every string
// its frames carry — and never changes it afterwards, so any number of
// decoders share it without a lock and no input can grow it. A string that
// is not in the table is allocated as usual. The nil table holds nothing.
type Symbols struct {
	m map[string]string
}

// NewSymbols returns the table holding ss.
func NewSymbols(ss []string) *Symbols {
	m := make(map[string]string, len(ss))
	for _, s := range ss {
		m[s] = s
	}
	return &Symbols{m: m}
}

// DecodeString decodes a length-prefixed string, returning the table's
// copy when it holds one, and the bytes consumed.
func (s *Symbols) DecodeString(b []byte) (string, int, error) {
	p, n, err := DecodeBytes(b)
	if err != nil {
		return "", 0, err
	}
	if s != nil {
		if sym, ok := s.m[string(p)]; ok {
			return sym, n, nil
		}
	}
	return string(p), n, nil
}

// maxValueDepth bounds list nesting in decoded values. The decoder
// recurses per level and runs before any signature check, so without a
// bound a few megabytes of list headers overflow the stack. The
// programs' lists are path vectors, depth 1.
const maxValueDepth = 32

// minValueSize is the smallest encoding of a value: a kind byte and at
// least one of payload. A decoder runs before any signature check, so an
// element count is an attacker's word until the elements have been
// decoded: a count the remaining bytes cannot hold at minValueSize bytes a
// value is refused outright, and nothing is reserved for the rest ahead of
// decoding it.
const minValueSize = 2

// A Decoder decodes a run of tuples — the items of one frame — through a
// symbol table, and gives all their values one backing array: every
// tuple's Args and every list is a three-index slice of it, so appending to
// one never writes over a neighbour. Values are decoded into the
// decoder's scratch, which grows with what the bytes actually hold, and
// copied into a backing array of exactly their number when the run ends
// (Tuples). Decoders come from a pool: get one with NewDecoder, return it
// with Release. A lender (NewLender) carves each run's backing array out
// of an arena of its own instead, until Reclaim takes the arena back; it
// is never pooled. A Decoder is not safe for concurrent use.
type Decoder struct {
	syms *Symbols
	// open holds decoded values whose enclosing list or tuple has not
	// ended yet. When it ends its values move to vals, contiguously.
	open []openValue
	// vals is the backing array's layout: ended lists' elements and
	// tuples' arguments.
	vals []Value
	// lists records that vals[at] is the list vals[off:off+n].
	lists []span
	// ts are the run's tuples, whose arguments are vals[args[i]].
	ts   []Tuple
	args []span
	// lends marks a lender; lent is its arena, of which the first nlent
	// values are handed out.
	lends bool
	lent  []Value
	nlent int
}

// openValue is a decoded value waiting in Decoder.open; a list's elements
// are already laid out at vals[off:off+n].
type openValue struct {
	v      Value
	off, n int
}

type span struct{ at, off, n int }

// maxPooledValues is the scratch a released Decoder may keep: a one-off
// huge frame is not worth hoarding.
const maxPooledValues = 1 << 14

var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// NewDecoder returns an empty decoder resolving strings through syms (nil
// = none).
func NewDecoder(syms *Symbols) *Decoder {
	d := decoders.Get().(*Decoder)
	d.syms = syms
	return d
}

// NewLender returns an empty lender resolving strings through syms (nil
// = none): a decoder whose runs' values stay valid only until its next
// Reclaim, which hands its arena out again. A lender never comes from the
// pool and never goes back to it, so a value it lent is never handed to a
// NewDecoder caller (DecodeTuple, DecodeValue).
func NewLender(syms *Symbols) *Decoder { return &Decoder{syms: syms, lends: true} }

// Oversized reports whether d holds more scratch than a decoder kept for
// reuse may: Release drops such a decoder instead of pooling it.
func (d *Decoder) Oversized() bool { return cap(d.open)+cap(d.vals)+len(d.lent) > maxPooledValues }

// Reclaim ends the lifetime of every value the lender handed out: its
// arena is handed out again from the start, cleared, or under poison
// with every lent value overwritten by one a test can recognise.
func (d *Decoder) Reclaim(poison *Value) {
	lent := d.lent[:d.nlent]
	if poison == nil {
		clear(lent)
	} else {
		for i := range lent {
			lent[i] = *poison
		}
	}
	d.nlent = 0
}

// Release drops whatever the decoder still holds and returns it to the
// pool; d must not be used afterwards. A lender is left to the collector.
func (d *Decoder) Release() {
	if d.lends || d.Oversized() {
		return
	}
	d.reset()
	d.syms = nil
	decoders.Put(d)
}

// reset empties the scratch, clearing it so it keeps no string or backing
// array alive (the last run's tuples stay in ts past its length).
func (d *Decoder) reset() {
	d.truncate(0, 0, 0)
	clear(d.ts[:cap(d.ts)])
	d.ts, d.args = d.ts[:0], d.args[:0]
}

// truncate drops the scratch past the given lengths.
func (d *Decoder) truncate(open, vals, lists int) {
	clear(d.open[open:])
	clear(d.vals[vals:])
	d.open, d.vals, d.lists = d.open[:open], d.vals[:vals], d.lists[:lists]
}

// Tuple decodes one tuple from b into the run, returning the bytes
// consumed. Its arguments are ready once Tuples ends the run. A tuple that
// does not decode leaves the run as it was.
func (d *Decoder) Tuple(b []byte) (int, error) {
	open, vals, lists := len(d.open), len(d.vals), len(d.lists)
	n, err := d.tuple(b)
	if err != nil {
		d.truncate(open, vals, lists)
	}
	return n, err
}

func (d *Decoder) tuple(b []byte) (int, error) {
	pred, n, err := d.syms.DecodeString(b)
	if err != nil {
		return 0, err
	}
	asserter, m, err := d.syms.DecodeString(b[n:])
	if err != nil {
		return 0, err
	}
	n += m
	arity, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return 0, ErrCorrupt
	}
	n += m
	if arity > uint64(len(b[n:])/minValueSize) {
		return 0, fmt.Errorf("%w: count %d exceeds payload", ErrCorrupt, arity)
	}
	for i := uint64(0); i < arity; i++ {
		m, err := d.value(b[n:], 0)
		if err != nil {
			return 0, err
		}
		n += m
	}
	d.args = append(d.args, span{off: d.close(int(arity)), n: int(arity)})
	d.ts = append(d.ts, Tuple{Pred: pred, Asserter: asserter})
	return n, nil
}

// Tuples ends the run: it returns the tuples decoded since the last call,
// with their values in one new backing array (a lender's: lent until its
// next Reclaim), and starts the next run. The returned slice is the
// decoder's and valid until its next use; the tuples in it are the
// caller's.
func (d *Decoder) Tuples() []Tuple {
	ts := d.ts
	vals := d.finish()
	for i, a := range d.args {
		ts[i].Args = vals[a.off : a.off+a.n : a.off+a.n]
	}
	d.ts, d.args = d.ts[:0], d.args[:0]
	return ts
}

// finish copies the laid-out values into their backing array, points
// every list at its elements there, and returns it.
func (d *Decoder) finish() []Value {
	var vals []Value
	if len(d.vals) > 0 {
		vals = d.backing(len(d.vals))
		copy(vals, d.vals)
		for _, l := range d.lists {
			vals[l.at].List = vals[l.off : l.off+l.n : l.off+l.n]
		}
	}
	d.truncate(len(d.open), 0, 0)
	return vals
}

// minLent is the smallest arena a lender allocates.
const minLent = 256

// backing returns a run's backing array of n values: a new one, or the
// next n of a lender's arena. An arena too short for the run is replaced
// by one twice as long; the values lent from the old one stay valid, and
// the collector takes it once they are no longer used.
func (d *Decoder) backing(n int) []Value {
	if !d.lends {
		return make([]Value, n)
	}
	if d.nlent+n > len(d.lent) {
		d.lent, d.nlent = make([]Value, max(n, 2*len(d.lent), minLent)), 0
	}
	out := d.lent[d.nlent : d.nlent+n : d.nlent+n]
	d.nlent += n
	return out
}

// close ends the list or tuple holding the last n open values: they move
// to vals, contiguously, and their offset there is returned.
func (d *Decoder) close(n int) int {
	base := len(d.vals)
	top := d.open[len(d.open)-n:]
	for i, o := range top {
		if o.v.Kind == KindList {
			d.lists = append(d.lists, span{at: base + i, off: o.off, n: o.n})
		}
		d.vals = append(d.vals, o.v)
	}
	clear(top)
	d.open = d.open[:len(d.open)-n]
	return base
}

// value decodes one value, depth lists deep, onto open and returns the
// bytes consumed. Lists nested deeper than maxValueDepth are ErrCorrupt.
func (d *Decoder) value(b []byte, depth int) (int, error) {
	if len(b) == 0 {
		return 0, ErrShortBuffer
	}
	kind := Kind(b[0])
	n := 1
	var v Value
	switch kind {
	case KindInt:
		i, m := binary.Varint(b[n:])
		if m <= 0 {
			return 0, ErrCorrupt
		}
		v, n = Int(i), n+m
	case KindBool:
		if len(b) < n+1 {
			return 0, ErrShortBuffer
		}
		v, n = Bool(b[n] != 0), n+1
	case KindFloat:
		if len(b) < n+8 {
			return 0, ErrShortBuffer
		}
		v, n = Float(math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))), n+8
	case KindString:
		s, m, err := d.syms.DecodeString(b[n:])
		if err != nil {
			return 0, err
		}
		v, n = Str(s), n+m
	case KindList:
		if depth == maxValueDepth {
			return 0, fmt.Errorf("%w: lists nested deeper than %d", ErrCorrupt, maxValueDepth)
		}
		cnt, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return 0, ErrCorrupt
		}
		n += m
		if cnt > uint64(len(b[n:])/minValueSize) {
			return 0, fmt.Errorf("%w: count %d exceeds payload", ErrCorrupt, cnt)
		}
		for i := uint64(0); i < cnt; i++ {
			m, err := d.value(b[n:], depth+1)
			if err != nil {
				return 0, err
			}
			n += m
		}
		d.open = append(d.open, openValue{v: Value{Kind: KindList}, off: d.close(int(cnt)), n: int(cnt)})
		return n, nil
	default:
		return 0, fmt.Errorf("%w: unknown value kind %d", ErrCorrupt, kind)
	}
	d.open = append(d.open, openValue{v: v})
	return n, nil
}
