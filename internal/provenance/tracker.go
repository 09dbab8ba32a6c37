package provenance

import (
	"encoding/binary"
	"fmt"
	"slices"

	"provnet/internal/bdd"
	"provnet/internal/data"
	"provnet/internal/engine"
	"provnet/internal/semiring"
)

// Mode selects the provenance representation of the taxonomy (§4.1, §4.4).
type Mode uint8

// Provenance modes.
const (
	// ModeNone records nothing (the NDlog / SeNDlog baselines).
	ModeNone Mode = iota
	// ModeLocal ships the full derivation tree with every tuple: cheap
	// querying and local trust enforcement, expensive communication.
	ModeLocal
	// ModeDistributed ships nothing and stores per-node derivation
	// pointers; provenance is reconstructed on demand by a distributed
	// traceback query.
	ModeDistributed
	// ModeCondensed ships a BDD-encoded provenance-semiring expression
	// over asserting principals — the paper's SeNDlogProv configuration.
	ModeCondensed
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeLocal:
		return "local"
	case ModeDistributed:
		return "distributed"
	case ModeCondensed:
		return "condensed"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// TrackerConfig configures a node's provenance tracker.
type TrackerConfig struct {
	Mode Mode
	// Self is the node / principal name.
	Self string
	// Store receives the derivation pointers of ModeDistributed, the
	// only mode that keeps them (NewTracker creates one when nil); the
	// other modes carry their provenance in the annotation and never
	// touch it.
	Store *Store
	// Clock supplies logical timestamps for store records.
	Clock func() float64
	// SampleEvery records only every k-th derivation into the Store (the
	// IP-traceback-style sampling optimization of §5; ModeDistributed
	// only). 0 or 1 records everything.
	SampleEvery int
}

// Tracker implements engine.ProvHook for one node in one mode.
type Tracker struct {
	cfg TrackerConfig
	// mgr is the node's BDD manager for condensed provenance.
	mgr *bdd.Manager
	// exprs memoises ExprOf per node of mgr. A hash-consed node is
	// immutable and never freed, so its rendering never changes and no
	// entry is ever evicted; the memo lives and dies with mgr. It is
	// guarded by what guards mgr: one node task, or the driver's run
	// lock, at a time.
	exprs map[bdd.Node]string
	// boxes holds each node of mgr as an engine.Annotation, boxed once:
	// a Node is an int32, and converting one of 256 or more to an
	// interface allocates. Like exprs it only grows, with mgr.
	boxes []engine.Annotation
	// buf, roots and refs are ExprOf's and AppendTable's scratch,
	// reused call after call.
	buf   []byte
	roots []bdd.Node
	refs  []uint64
	// derivCounter drives sampling.
	derivCounter int
}

var _ engine.ProvHook = (*Tracker)(nil)

// NewTracker builds a tracker. ModeNone trackers are valid and record
// nothing.
func NewTracker(cfg TrackerConfig) *Tracker {
	t := &Tracker{cfg: cfg}
	switch cfg.Mode {
	case ModeCondensed:
		t.mgr = bdd.New()
		t.exprs = make(map[bdd.Node]string)
	case ModeDistributed:
		if t.cfg.Store == nil {
			t.cfg.Store = NewStore(cfg.Self)
		}
	}
	return t
}

// Manager exposes the node's BDD manager (condensed mode).
func (tr *Tracker) Manager() *bdd.Manager { return tr.mgr }

// Mode returns the tracker's mode.
func (tr *Tracker) Mode() Mode { return tr.cfg.Mode }

// Annotation returns n as the engine annotation of a condensed tuple, the
// one box of n this tracker keeps. ModeCondensed only.
func (tr *Tracker) Annotation(n bdd.Node) engine.Annotation {
	if size := tr.mgr.NumNodes(); int(n) >= len(tr.boxes) {
		tr.boxes = slices.Grow(tr.boxes, size-len(tr.boxes))[:size]
	}
	if tr.boxes[n] == nil {
		tr.boxes[n] = n
	}
	return tr.boxes[n]
}

func (tr *Tracker) now() float64 {
	if tr.cfg.Clock != nil {
		return tr.cfg.Clock()
	}
	return 0
}

// sampled reports whether this derivation should be recorded under the
// sampling optimization.
func (tr *Tracker) sampled() bool {
	if tr.cfg.SampleEvery <= 1 {
		return true
	}
	tr.derivCounter++
	return tr.derivCounter%tr.cfg.SampleEvery == 0
}

// principalVar names the semiring variable of a base tuple: its asserting
// principal in SeNDlog mode (matching Figure 2's <a>, <b> annotations), or
// the tuple key itself in unauthenticated runs (base-tuple provenance).
func principalVar(t data.Tuple, self string) string {
	if t.Asserter != "" {
		return t.Asserter
	}
	if self != "" {
		return self
	}
	return t.Key() //provlint:allow keystring the canonical bytes name the semiring variable of an unauthenticated base tuple; part of the provenance expression contract
}

// --- engine.ProvHook ---

// Base annotates a locally inserted base tuple.
func (tr *Tracker) Base(t data.Tuple) engine.Annotation {
	switch tr.cfg.Mode {
	case ModeLocal:
		return NewLeaf(t)
	case ModeDistributed:
		return Ref{Node: tr.cfg.Self, Key: tr.cfg.Store.RecordBase(t, tr.now())}
	case ModeCondensed:
		return tr.Annotation(tr.mgr.Var(principalVar(t, tr.cfg.Self)))
	default:
		return nil
	}
}

// Import reconstructs the annotation of a tuple received from the network.
func (tr *Tracker) Import(t data.Tuple, payload []byte) (engine.Annotation, error) {
	switch tr.cfg.Mode {
	case ModeLocal:
		if len(payload) == 0 {
			// Sender had no provenance for it; treat as opaque leaf.
			// The leaf keeps the tuple, which is the caller's.
			return NewLeaf(t.Clone()), nil
		}
		tree, err := UnmarshalTree(payload)
		if err != nil {
			return nil, err // not a typed nil in the interface
		}
		return tree, nil
	case ModeDistributed:
		// Payload is the sender's pointer: node + key.
		if len(payload) == 0 {
			return Ref{Node: tr.cfg.Self, Key: tr.cfg.Store.Key(t)}, nil
		}
		node, n, err := data.DecodeString(payload)
		if err != nil {
			return nil, err
		}
		key, _, err := data.DecodeString(payload[n:])
		if err != nil {
			return nil, err
		}
		ref := Ref{Node: node, Key: key}
		tr.cfg.Store.RecordOrigin(t, ref, tr.now())
		return ref, nil
	case ModeCondensed:
		if len(payload) == 0 {
			return tr.Annotation(tr.mgr.Var(principalVar(t, ""))), nil
		}
		ref, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("%w: root ref", bdd.ErrBadEncoding)
		}
		nodes, err := tr.mgr.DecodeTable(payload[n:])
		if err != nil {
			return nil, err
		}
		if ref >= uint64(len(nodes)) {
			return nil, fmt.Errorf("%w: root ref %d past a table of %d", bdd.ErrBadEncoding, ref, len(nodes))
		}
		return tr.Annotation(nodes[ref]), nil
	default:
		return nil, nil
	}
}

// Derive combines body annotations for a rule firing.
func (tr *Tracker) Derive(rule, node string, head data.Tuple, body []engine.AnnTuple) engine.Annotation {
	switch tr.cfg.Mode {
	case ModeLocal:
		children := make([]*Tree, 0, len(body))
		for _, b := range body {
			if t, ok := b.Ann.(*Tree); ok && t != nil {
				children = append(children, t)
			} else {
				children = append(children, NewLeaf(b.Tuple))
			}
		}
		return NewDerived(head, rule, node, children)
	case ModeDistributed:
		st := tr.cfg.Store
		if !tr.sampled() {
			return Ref{Node: tr.cfg.Self, Key: st.Key(head)}
		}
		children := make([]Ref, 0, len(body))
		for _, b := range body {
			r, ok := b.Ann.(Ref)
			if !ok {
				r = Ref{Node: tr.cfg.Self, Key: st.Key(b.Tuple)}
			}
			children = append(children, r)
		}
		return Ref{Node: tr.cfg.Self, Key: st.RecordDeriv(head, rule, children, tr.now())}
	case ModeCondensed:
		acc := bdd.True
		for _, b := range body {
			if n, ok := b.Ann.(bdd.Node); ok {
				acc = tr.mgr.And(acc, n)
			} else {
				acc = tr.mgr.And(acc, tr.mgr.Var(principalVar(b.Tuple, tr.cfg.Self)))
			}
		}
		return tr.Annotation(acc)
	default:
		return nil
	}
}

// Merge combines an alternative derivation into an existing annotation.
func (tr *Tracker) Merge(existing, incoming engine.Annotation) (engine.Annotation, bool) {
	switch tr.cfg.Mode {
	case ModeLocal:
		et, ok1 := existing.(*Tree)
		it, ok2 := incoming.(*Tree)
		if !ok1 || !ok2 {
			return existing, false
		}
		changed := et.Merge(it)
		return et, changed
	case ModeDistributed:
		// Alternative derivations were already recorded in the store by
		// Derive/Import; nothing is shipped, so nothing re-propagates.
		// This is the paper's trade-off: no communication overhead, more
		// expensive querying.
		return existing, false
	case ModeCondensed:
		en, ok1 := existing.(bdd.Node)
		in, ok2 := incoming.(bdd.Node)
		if !ok1 || !ok2 {
			return existing, false
		}
		if merged := tr.mgr.Or(en, in); merged != en {
			return tr.Annotation(merged), true
		}
		return existing, false
	default:
		return existing, false
	}
}

// Export serializes the annotation for shipment with its tuple alone. A
// condensed annotation ships as its root's ref followed by the table of
// that one root; a data frame carries one table for all its tuples
// instead (AppendTable).
func (tr *Tracker) Export(t data.Tuple, ann engine.Annotation) []byte {
	switch tr.cfg.Mode {
	case ModeLocal:
		if tree, ok := ann.(*Tree); ok && tree != nil {
			return tree.Marshal()
		}
		return nil
	case ModeDistributed:
		// Ship only the pointer (no communication overhead beyond it).
		ref, ok := ann.(Ref)
		if !ok {
			ref = Ref{Node: tr.cfg.Self, Key: tr.cfg.Store.Key(t)}
		}
		var b []byte
		b = data.AppendString(b, ref.Node)
		b = data.AppendString(b, ref.Key)
		return b
	case ModeCondensed:
		if n, ok := ann.(bdd.Node); ok {
			table, refs := tr.mgr.AppendTable(nil, nil, []bdd.Node{n})
			return append(binary.AppendUvarint(make([]byte, 0, 1+len(table)), refs[0]), table...)
		}
		return nil
	default:
		return nil
	}
}

// AppendTable appends to b the one BDD table (bdd.AppendTable) that
// carries the condensed annotations of a data frame's tuples, and returns
// each annotation's ref into it, in the tracker's scratch: the refs are
// valid until its next AppendTable. ModeCondensed only, where every
// annotation the engine holds is this tracker's BDD.
func (tr *Tracker) AppendTable(b []byte, anns []engine.Annotation) ([]byte, []uint64) {
	tr.roots = tr.roots[:0]
	for _, ann := range anns {
		tr.roots = append(tr.roots, ann.(bdd.Node))
	}
	b, tr.refs = tr.mgr.AppendTable(b, tr.refs[:0], tr.roots)
	return b, tr.refs
}

// DecodeTable decodes a data frame's table into the node's manager, once
// for all the frame's tuples: table ref r names nodes[r], in the
// manager's scratch until its next decode (bdd.DecodeTable); Annotation
// copies a node out. ModeCondensed only.
func (tr *Tracker) DecodeTable(b []byte) (nodes []bdd.Node, err error) {
	return tr.mgr.DecodeTable(b)
}

// Withdraw marks a withdrawn tuple's provenance stale in the store (live
// link churn retracted the tuple). The record remains queryable.
// ModeDistributed only: the other modes keep no store.
func (tr *Tracker) Withdraw(t data.Tuple) {
	if tr.cfg.Mode == ModeDistributed {
		tr.cfg.Store.MarkStale(tr.cfg.Store.Key(t), tr.now())
	}
}

// Restore clears the stale flag of a re-derived tuple's provenance
// (ModeDistributed only).
func (tr *Tracker) Restore(t data.Tuple) {
	if tr.cfg.Mode == ModeDistributed {
		tr.cfg.Store.ClearStale(tr.cfg.Store.Key(t))
	}
}

// --- quantifiable provenance (§4.5) ---

// PolyOf converts a condensed annotation back into a provenance
// polynomial over principals (B[X] form), for evaluation under other
// semirings.
func (tr *Tracker) PolyOf(ann engine.Annotation) semiring.Poly {
	n, ok := ann.(bdd.Node)
	if !ok || tr.mgr == nil {
		return semiring.Zero()
	}
	return semiring.FromCubes(tr.mgr.Cubes(n))
}

// ExprOf renders a condensed annotation in the paper's <...> style. Each
// BDD node is rendered once; later calls return the memoised string.
func (tr *Tracker) ExprOf(ann engine.Annotation) string {
	n, ok := ann.(bdd.Node)
	if !ok || tr.mgr == nil {
		return ""
	}
	s, ok := tr.exprs[n]
	if !ok {
		tr.buf = append(tr.mgr.AppendExpr(append(tr.buf[:0], '<'), n), '>')
		s = string(tr.buf)
		tr.exprs[n] = s
	}
	return s
}

// ExprMemoSize returns the number of BDD nodes ExprOf has rendered and
// memoised (0 outside ModeCondensed). Like the manager, it only grows.
func (tr *Tracker) ExprMemoSize() int { return len(tr.exprs) }

// TreePoly computes the provenance polynomial of a derivation tree
// (ModeLocal), attributing leaves to their asserting principals; it
// produces the uncondensed expressions of Figure 2 such as a + a*b.
func TreePoly(t *Tree, self string) semiring.Poly {
	if len(t.Derivs) == 0 {
		return semiring.Var(principalVar(t.Tuple, self))
	}
	sum := semiring.Zero()
	for _, d := range t.Derivs {
		prod := semiring.One()
		for _, c := range d.Children {
			prod = prod.Mul(TreePoly(c, self))
		}
		sum = sum.Add(prod)
	}
	return sum
}
