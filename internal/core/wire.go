package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"provnet/internal/auth"
	"provnet/internal/bdd"
	"provnet/internal/data"
	"provnet/internal/datalog"
	"provnet/internal/engine"
	"provnet/internal/provenance"
)

// This file is the whole datagram format (docs/WIRE.md is its byte-level
// specification): one frame type, one seal, one decoder, one open.
//
//	kind                   one byte, below
//	From                   string — the sending node / principal
//	body                   by kind
//	tag                    bytes — auth.Sealer tag over every byte before it
//
// A handshake frame is the exception: the kind byte and then the
// auth.SessionSealer handshake blob, which names its own endpoints and
// carries its own signature, so it has neither From nor tag.
//
// The receiver never re-encodes what it parsed: the tag is checked over
// the received bytes, so the signer and the verifier cannot disagree
// about what was signed.

// Frame kinds: the first byte of every datagram.
const (
	// kindData is what a node says: the tuples it exports to one
	// destination in one round (or one tuple, under Config.Unbatched),
	// with their provenance — one BDD table for the frame under
	// ModeCondensed, a payload per tuple under the other modes.
	kindData byte = 1 + iota
	// kindRetract withdraws tuples the sender no longer derives (link
	// churn); the receiver removes the sender's support for each.
	kindRetract
	// kindHandshake installs a session key for one directed link.
	kindHandshake
	// kindToken is the termination detector's circulating wave token;
	// kindTerminate the root's fixpoint declaration (see term.go). They
	// never carry tuples and never mark activity.
	kindToken
	kindTerminate
)

// ErrBadEnvelope reports a datagram that does not parse.
var ErrBadEnvelope = errors.New("core: bad envelope")

// frame is one datagram, built by the export path or parsed by
// frame.decode. Which fields are meaningful depends on kind.
type frame struct {
	kind byte
	from string
	// mode tags the provenance encoding of every item (data).
	mode provenance.Mode
	// table is a ModeCondensed data frame's one BDD table (bdd.AppendTable)
	// that its items' refs point into; decode checks its shape and
	// leaves it aliasing the datagram.
	table []byte
	// items are the shipped (data) or withdrawn (retract) tuples; retract
	// frames carry no provenance.
	items []item
	// wave numbers the detection attempt and acts is the running sum of
	// the activity counters stamped into it (token, terminate).
	wave, acts uint64
	// epoch is the session epoch a handshake frame is reserved for; the
	// sender's seal turns it into blob, which is all the receiver sees.
	epoch uint64
	blob  []byte
	// signed and tag are set by decode: the received bytes the tag
	// covers, and the tag. Both alias the datagram.
	signed, tag []byte
}

// item is one tuple of a data or retract frame. ann is its annotation:
// what the export path encodes into prov or ref as it builds the frame,
// and what deliver decodes from them. On the wire a data item carries
// prov, the mode's per-tuple payload, except under ModeCondensed, where it
// carries ref into the frame's table: k+1 = table ref k, and 0 = none,
// which the receiver imports as it would an empty payload (senders always
// write a table ref).
type item struct {
	tuple data.Tuple
	ann   engine.Annotation
	prov  []byte
	ref   uint64
}

// handshaker is the part of auth.SessionSealer a handshake frame needs.
type handshaker interface {
	SealHandshake(src, dst string, epoch uint64) ([]byte, error)
	AcceptHandshake(self string, blob []byte) (string, error)
}

var errNoSessionTransport = errors.New("core: handshake frame without a session transport")

// appendSigned appends the bytes the frame's tag covers: everything but
// the tag. A handshake frame has none.
func (f *frame) appendSigned(b []byte) []byte {
	if f.kind == kindHandshake {
		return b
	}
	b = data.AppendString(append(b, f.kind), f.from)
	switch f.kind {
	case kindData:
		b = append(b, byte(f.mode))
		condensed := f.mode == provenance.ModeCondensed
		if condensed {
			b = data.AppendBytes(b, f.table)
		}
		b = binary.AppendUvarint(b, uint64(len(f.items)))
		for _, it := range f.items {
			b = data.AppendTuple(b, it.tuple)
			if condensed {
				b = binary.AppendUvarint(b, it.ref)
			} else {
				b = data.AppendBytes(b, it.prov)
			}
		}
	case kindRetract:
		b = binary.AppendUvarint(b, uint64(len(f.items)))
		for _, it := range f.items {
			b = data.AppendTuple(b, it.tuple)
		}
	case kindToken, kindTerminate:
		b = binary.AppendUvarint(b, f.wave)
		b = binary.AppendUvarint(b, f.acts)
	}
	return b
}

// encodeProv writes the provenance of a data frame's items the way its
// mode ships it: one table for the whole frame under ModeCondensed, one
// payload per item under ModeLocal and ModeDistributed, nothing under
// ModeNone. A table is appended to the task's table arena (s.table),
// capped so that nothing appended to one frame's table can reach into
// the next one's.
func (f *frame) encodeProv(tr *provenance.Tracker, s *roundScratch) {
	switch f.mode {
	case provenance.ModeNone:
	case provenance.ModeCondensed:
		s.anns = s.anns[:0]
		for _, it := range f.items {
			s.anns = append(s.anns, it.ann)
		}
		lo := len(s.table)
		var refs []uint64
		s.table, refs = tr.AppendTable(s.table, s.anns)
		clear(s.anns)
		hi := len(s.table)
		f.table = s.table[lo:hi:hi]
		for i, ref := range refs {
			f.items[i].ref = ref + 1
		}
	default:
		for i, it := range f.items {
			f.items[i].prov = tr.Export(it.tuple, it.ann)
		}
	}
}

// decodeProv reconstructs the annotations of a received data frame's
// items at the node tr tracks, all of them or none: the first that does
// not decode is returned as the frame's error. The receiver's
// own mode decides, as its own configuration picks the sealer, so a frame
// in another mode is refused. Refs were checked against the table by
// decode.
func (f *frame) decodeProv(tr *provenance.Tracker) error {
	if f.mode != tr.Mode() {
		return fmt.Errorf("%w: %v provenance at a %v node", ErrBadEnvelope, f.mode, tr.Mode())
	}
	if f.mode == provenance.ModeNone {
		return nil
	}
	var tab []bdd.Node // the manager's decode scratch: copied out here, at once
	if f.mode == provenance.ModeCondensed {
		var err error
		if tab, err = tr.DecodeTable(f.table); err != nil {
			return fmt.Errorf("%w: provenance table: %v", ErrBadEnvelope, err)
		}
	}
	for i := range f.items {
		it := &f.items[i]
		if it.ref > 0 {
			it.ann = tr.Annotation(tab[it.ref-1])
			continue
		}
		var err error
		if it.ann, err = tr.Import(it.tuple, it.prov); err != nil {
			return fmt.Errorf("%w: provenance of item %d: %v", ErrBadEnvelope, i, err)
		}
	}
	if tab != nil && poisonWire.Load() {
		tr.Manager().PoisonDecodeForTesting()
	}
	return nil
}

// sealFrames serializes the frames from sends in one round into s, seals
// them with one sealer call — which is what lets a signature scheme sign
// the round once (auth/tree.go) — and hands each datagram to ship, in
// order. Handshake frames carry their own signature and are sealed as
// they come up. It returns the says operations the sealer spent. Tags
// depend on the frames and their order alone, so either schedule ships
// the same bytes.
//
// Sealers hash the signed bytes without retaining them, and the tags are
// copied into the datagrams, so only the datagrams' arena is freshly
// sized: the other datagrams are carved from it, each capacity-limited
// so that nothing appended to one can reach the next; nothing writes to
// the arena once a datagram is carved from it, and it lives until the
// transport has let go of the last of them.
func sealFrames(s *roundScratch, sealer auth.Sealer, from string, frames []outFrame, ship func(f outFrame, datagram []byte) error) (int, error) {
	s.signed, s.ends, s.batch = s.signed[:0], s.ends[:0], s.batch[:0]
	for _, f := range frames {
		s.signed = f.appendSigned(s.signed)
		s.ends = append(s.ends, len(s.signed))
	}
	// The signed bytes no longer move: each frame's can be sliced out.
	lo := 0
	for i, f := range frames {
		if f.kind != kindHandshake {
			s.batch = append(s.batch, auth.Envelope{Dst: f.dst, Payload: s.signed[lo:s.ends[i]]})
		}
		lo = s.ends[i]
	}
	tags, signs, err := sealer.SealBatch(from, s.batch, s.tags[:0])
	s.tags = tags
	if err != nil {
		return 0, fmt.Errorf("core: sealing frames from %s: %w", from, err)
	}
	size := 0
	for _, e := range s.batch {
		size += len(e.Payload) + len(e.Tag) + binary.MaxVarintLen64
	}
	arena := make([]byte, 0, size)
	next := 0
	for _, f := range frames {
		var datagram []byte
		if f.kind == kindHandshake {
			if datagram, err = f.sealHandshake(sealer, f.dst); err != nil {
				return 0, err
			}
		} else {
			e := s.batch[next]
			next++
			lo := len(arena)
			arena = data.AppendBytes(append(arena, e.Payload...), e.Tag)
			datagram = arena[lo:len(arena):len(arena)]
		}
		if err := ship(f, datagram); err != nil {
			return 0, err
		}
	}
	return signs, nil
}

// sealHandshake builds the handshake datagram for the from→to link.
func (f *frame) sealHandshake(sealer auth.Sealer, to string) ([]byte, error) {
	h, ok := sealer.(handshaker)
	if !ok {
		return nil, errNoSessionTransport
	}
	blob, err := h.SealHandshake(f.from, to, f.epoch)
	if err != nil {
		return nil, err
	}
	return append(append(make([]byte, 0, 1+len(blob)), kindHandshake), blob...), nil
}

// seal is sealFrames for a frame sealed alone (control frames), in s,
// which it resets.
func (f *frame) seal(s *roundScratch, sealer auth.Sealer, to string) (datagram []byte, err error) {
	_, err = sealFrames(s, sealer, f.from, []outFrame{{to, f}}, func(_ outFrame, d []byte) error {
		datagram = d
		return nil
	})
	s.reset()
	return datagram, err
}

// open authenticates a decoded frame received at node to: the tag is
// checked over the bytes as received. Opening a handshake frame verifies
// its blob and installs the inbound session it transports.
func (f *frame) open(sealer auth.Sealer, to string) error {
	if f.kind == kindHandshake {
		h, ok := sealer.(handshaker)
		if !ok {
			return errNoSessionTransport
		}
		_, err := h.AcceptHandshake(to, f.blob)
		return err
	}
	return sealer.Open(f.from, to, f.signed, f.tag)
}

// maxPresize caps the capacity decode allocates on the word of a
// count it has not authenticated yet; past it the slice grows with the
// items actually decoded. Item sizes are the smallest encodings: a tuple
// is two empty strings and an arity, a data item adds an empty payload or
// a one-byte ref.
const (
	maxPresize     = 64
	minTupleSize   = 3
	minPayloadSize = 1
)

// frameSymbols is the symbol table a network decodes its frames through:
// the strings a frame can carry that are known before any is sent. Those
// are the node names (senders, asserters, addresses in tuples and paths),
// the predicates of the rule heads (frames ship derived heads, or withdraw
// them), and the string constants of the heads, the expressions and the
// facts the heads' values come from.
func frameSymbols(prog *datalog.Program, nodes []string) *data.Symbols {
	ss := append([]string(nil), nodes...)
	var value func(v data.Value)
	value = func(v data.Value) {
		switch v.Kind {
		case data.KindString:
			ss = append(ss, v.Str)
		case data.KindList:
			for _, e := range v.List {
				value(e)
			}
		}
	}
	var expr func(x datalog.Expr)
	expr = func(x datalog.Expr) {
		switch x := x.(type) {
		case datalog.ConstExpr:
			value(x.Value)
		case datalog.UnaryExpr:
			expr(x.X)
		case datalog.BinExpr:
			expr(x.L)
			expr(x.R)
		case datalog.CallExpr:
			for _, a := range x.Args {
				expr(a)
			}
		}
	}
	for _, r := range prog.Rules {
		ss = append(ss, r.Head.Pred)
		for _, t := range r.Head.Args {
			if c, ok := t.(datalog.Constant); ok {
				value(c.Value)
			}
		}
		for _, l := range r.Body {
			if l.Kind != datalog.LitAtom {
				expr(l.Expr)
			}
		}
	}
	for _, f := range prog.Facts {
		for _, v := range f.Tuple.Args {
			value(v)
		}
	}
	return data.NewSymbols(ss)
}

// decode parses one datagram into f without authenticating it, resolving
// its strings through syms (nil = none) and its tuples through dec, a
// decoder over the same symbols; f's item array is reused. Everything
// here runs on bytes anyone who can reach the socket may have written: it
// must return an error, never panic, and never allocate more than the
// bytes it was handed can account for. A data or retract frame's tuples
// share one value array (data.Decoder), which a lender's Reclaim takes
// back. After an error dec may hold part of a run and must be replaced.
func (f *frame) decode(p []byte, syms *data.Symbols, dec *data.Decoder) error {
	*f = frame{items: f.items[:0]}
	if len(p) == 0 {
		return fmt.Errorf("%w: empty datagram", ErrBadEnvelope)
	}
	f.kind = p[0]
	c := &cursor{b: p, n: 1}
	switch f.kind {
	case kindHandshake:
		if len(p) == 1 {
			return fmt.Errorf("%w: empty handshake frame", ErrBadEnvelope)
		}
		f.blob = p[1:]
		return nil
	case kindData, kindRetract:
		f.from = read(c, "from", syms.DecodeString)
		itemSize := minTupleSize
		refs := 0 // ModeCondensed: how many refs the frame's table defines
		if f.kind == kindData {
			f.mode = provenance.Mode(read(c, "provenance mode", decodeByte))
			itemSize += minPayloadSize
			if f.mode == provenance.ModeCondensed {
				f.table = read(c, "provenance table", data.DecodeBytes)
				if c.err == nil {
					var err error
					if refs, err = bdd.CheckTable(f.table); err != nil {
						c.err = fmt.Errorf("%w: provenance table: %v", ErrBadEnvelope, err)
					}
				}
			}
		}
		count := read(c, "item count", decodeUvarint)
		if c.err == nil && count > uint64((len(p)-c.n)/itemSize) {
			return fmt.Errorf("%w: item count %d exceeds payload", ErrBadEnvelope, count)
		}
		if presize := int(min(count, maxPresize)); cap(f.items) < presize {
			f.items = make([]item, 0, presize)
		}
		for i := uint64(0); i < count && c.err == nil; i++ {
			var it item
			c.skip("tuple", dec.Tuple)
			switch {
			case f.kind == kindRetract:
			case f.mode == provenance.ModeCondensed:
				if it.ref = read(c, "provenance ref", decodeUvarint); it.ref > uint64(refs) && c.err == nil {
					c.err = fmt.Errorf("%w: provenance ref %d past a table of %d", ErrBadEnvelope, it.ref, refs)
				}
			default:
				if prov := read(c, "provenance", data.DecodeBytes); len(prov) > 0 {
					it.prov = append([]byte(nil), prov...)
				}
			}
			f.items = append(f.items, it)
		}
		if c.err == nil {
			for i, t := range dec.Tuples() {
				f.items[i].tuple = t
			}
		}
	case kindToken, kindTerminate:
		f.from = read(c, "from", syms.DecodeString)
		f.wave = read(c, "wave", decodeUvarint)
		f.acts = read(c, "acts", decodeUvarint)
	default:
		return fmt.Errorf("%w: unknown frame kind %d", ErrBadEnvelope, f.kind)
	}
	f.signed = p[:c.n]
	f.tag = read(c, "tag", data.DecodeBytes)
	if c.err != nil {
		return c.err
	}
	if c.n != len(p) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadEnvelope, len(p)-c.n)
	}
	return nil
}

// cursor walks a datagram field by field. The first failure sticks and
// every later read returns a zero value, so decode checks once.
type cursor struct {
	b   []byte
	n   int
	err error
}

// read decodes the next field with dec, one of internal/data's decoders
// or the two below.
func read[T any](c *cursor, what string, dec func([]byte) (T, int, error)) (v T) {
	c.skip(what, func(b []byte) (m int, err error) {
		v, m, err = dec(b)
		return m, err
	})
	return v
}

// skip passes the next field to dec, which keeps what it decodes (a
// data.Decoder's Tuple), and moves past it.
func (c *cursor) skip(what string, dec func([]byte) (int, error)) {
	if c.err != nil {
		return
	}
	m, err := dec(c.b[c.n:])
	if err != nil {
		c.err = fmt.Errorf("%w: %s: %v", ErrBadEnvelope, what, err)
		return
	}
	c.n += m
}

func decodeByte(b []byte) (byte, int, error) {
	if len(b) == 0 {
		return 0, 0, data.ErrShortBuffer
	}
	return b[0], 1, nil
}

func decodeUvarint(b []byte) (uint64, int, error) {
	v, m := binary.Uvarint(b)
	if m <= 0 {
		return 0, 0, data.ErrCorrupt
	}
	return v, m, nil
}
