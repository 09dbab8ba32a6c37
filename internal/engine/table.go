package engine

import (
	"provnet/internal/data"
)

// Entry is one stored tuple with its soft-state metadata and provenance
// annotation.
type Entry struct {
	Tuple   data.Tuple
	Ann     Annotation
	Created float64
	// TTL is the lifetime in seconds; <0 means infinite (hard state).
	TTL float64
	// Dead marks entries that were replaced, retracted or expired; they
	// stay in the order and the indexes until the table compacts.
	Dead bool

	// hash caches the full structural hash of Tuple; pkHash caches the
	// primary-key projection hash. Both are filled on insert so the hot
	// path never rehashes a stored row.
	hash   uint64
	pkHash uint64
	// next chains the live rows whose primary keys share pkHash.
	next *Entry

	// support is what keeps the row stored (retraction, live-network
	// churn): it stays while any remains.
	support
}

// support is what holds a row up — a stored entry, a prune-shadowed
// candidate, or a tuple as it enters insert. local records that a base
// insert or a local rule derivation produced it; the remote senders that
// shipped it are origin while there is one, the overwhelmingly common
// case, and spill to the origins set at the second distinct sender.
type support struct {
	local   bool
	origin  string          // the one remote sender ("" = none) while origins is nil
	origins map[string]bool // two or more senders
}

// supportFrom is the per-tuple support: origin names the remote sender
// that shipped the tuple, "" a local source.
func supportFrom(origin string) support {
	return support{local: origin == "", origin: origin}
}

// add records every source in o.
func (s *support) add(o support) {
	if o.local {
		s.local = true
	}
	if o.origin != "" {
		s.addOrigin(o.origin)
	}
	if o.origins != nil { // shadow rows only; the check keeps a map iterator off the per-tuple path
		for sender := range o.origins { //provlint:allow mapiter set union into row supports; order cannot escape
			s.addOrigin(sender)
		}
	}
}

// addOrigin records one remote sender.
func (s *support) addOrigin(origin string) {
	switch {
	case s.origins != nil:
		s.origins[origin] = true
	case s.origin == "" || s.origin == origin:
		s.origin = origin
	default: // second distinct sender: spill to the set
		s.origins = map[string]bool{s.origin: true, origin: true}
		s.origin = ""
	}
}

// dropOrigin removes one remote sender, reporting whether it was present.
func (s *support) dropOrigin(origin string) bool {
	if s.origins != nil {
		if !s.origins[origin] {
			return false
		}
		delete(s.origins, origin)
		return true
	}
	if s.origin != "" && s.origin == origin {
		s.origin = ""
		return true
	}
	return false
}

// originCount returns the number of distinct remote senders.
func (s *support) originCount() int {
	if s.origins != nil {
		return len(s.origins)
	}
	if s.origin != "" {
		return 1
	}
	return 0
}

// clearOrigins drops every remote sender.
func (s *support) clearOrigins() {
	s.origins = nil
	s.origin = ""
}

// supported reports whether any support remains.
func (s *support) supported() bool {
	return s.local || s.originCount() > 0
}

// ExpiresAt returns the expiry time, or +inf-like behaviour via ok=false
// for hard state.
func (en *Entry) ExpiresAt() (float64, bool) {
	if en.TTL < 0 {
		return 0, false
	}
	return en.Created + en.TTL, true
}

// InsertStatus describes the outcome of a table insert (insertHashed).
type InsertStatus uint8

// Insert outcomes.
const (
	// InsertNew: the tuple was not present; stored.
	InsertNew InsertStatus = iota
	// InsertDuplicate: an identical tuple exists; the caller merges
	// annotations.
	InsertDuplicate
	// InsertReplaced: a different tuple shared the primary key and was
	// replaced (update semantics of keyed tables).
	InsertReplaced
)

// colIndex is one lazily built secondary index: buckets keyed by the
// structural hash of the indexed columns, each a chain of index nodes in
// insertion order. The prober settles collisions by comparing the
// indexed columns against its probe values.
type colIndex struct {
	cols    []int
	buckets map[uint64]idxBucket
}

// idxBucket is one bucket's chain: first for the probe's walk, last so an
// insert appends without walking to the tail.
type idxBucket struct{ first, last *idxNode }

// idxNode is one row's place in one index bucket.
type idxNode struct {
	en   *Entry
	next *idxNode
}

// push appends en to h's bucket, its node taken from nodes.
func (idx *colIndex) push(h uint64, en *Entry, nodes *slab[idxNode]) {
	n := nodes.alloc()
	n.en = en
	b := idx.buckets[h]
	if b.last == nil {
		b.first = n
	} else {
		b.last.next = n
	}
	b.last = n
	idx.buckets[h] = b
}

// Table is a materialized soft-state relation: rows keyed by a primary key
// (a subset of columns, default all columns plus the asserter), with lazy
// secondary hash indexes for join lookups, per-row TTLs, and an optional
// size bound evicting the oldest rows (P2's materialize maxSize).
//
// All row and index maps key on 64-bit structural hashes with an equality
// check along the bucket (a chain through the rows or through an index's
// nodes), never on materialized Key() strings: probes and inserts are
// allocation-free.
type Table struct {
	name    string
	keyCols []int // nil = whole tuple (including asserter)
	ttl     float64
	maxSize int

	// rows maps a primary-key hash to the first live entry with it; hash
	// collisions chain through Entry.next. At most one live entry per
	// distinct primary key.
	rows  chain[Entry]
	nlive int
	// order tracks insertion order, for maxSize eviction and for
	// deterministic scan/index order (join results must not depend on
	// map iteration).
	order []*Entry
	// dirty counts dead entries still parked in order and the indexes;
	// the engine compacts the table once they are as many as the live
	// ones.
	dirty int
	// indexes holds the column indexes by the slot the engine fixed for
	// their columns when it compiled the rules (Engine.indexSlot), nil
	// until the first probe builds one (the one table mutation a
	// read-only eval can cause).
	indexes []*colIndex

	// entries supplies the rows and nodes the index nodes, one malloc per
	// chunk, not per row. Entry chunks are never moved, so *Entry
	// pointers into them stay valid; an entry or node compact drops goes
	// back for the next insert, the entries chained through next on free.
	entries slab[Entry]
	free    *Entry
	nodes   slab[idxNode]

	// vals is the storage the table owns for the values of what it
	// keeps: its rows' arguments and those of its predicate's
	// prune-shadowed candidates, every list nested in them included.
	// A kept tuple's values are carved here (a derived head) or copied
	// in (own), never left in a decoded frame or a wave's scratch. held
	// counts the values the kept tuples use; what a dead row or a head
	// carved but never kept leaves behind is waste, and once the waste
	// outgrows both held and a slab chunk the engine rewrites the kept
	// tuples into fresh storage (Engine.compact). Storage is never
	// handed out twice: the old chunks are left to the collector, so a
	// tuple still pointing into them (a view row, a withdrawal) stays
	// valid.
	vals slab[data.Value]
	held int
	// moves counts the rewrites (Engine.Moves).
	moves int
}

// NewTable creates a table. keyCols are 0-based primary key columns (nil
// means identity key); ttl<0 means hard state; maxSize<0 means unbounded.
func NewTable(name string, keyCols []int, ttl float64, maxSize int) *Table {
	return &Table{
		name:    name,
		keyCols: keyCols,
		ttl:     ttl,
		maxSize: maxSize,
		rows:    newChain((*Entry).link),
		vals:    newStorage(),
	}
}

// Name returns the predicate name.
func (t *Table) Name() string { return t.name }

// TTL returns the declared soft-state lifetime (<0 = infinite).
func (t *Table) TTL() float64 { return t.ttl }

func (t *Table) pkHash(tu data.Tuple) uint64 {
	if t.keyCols == nil {
		return tu.Hash()
	}
	return tu.HashCols(t.keyCols)
}

// samePK reports whether two tuples share a primary key — the equality
// fallback inside a rows bucket. Mirrors Key()/ValueKey() equality.
func (t *Table) samePK(a, b data.Tuple) bool {
	if t.keyCols == nil {
		return a.Equal(b)
	}
	if a.Pred != b.Pred || a.Asserter != b.Asserter {
		return false
	}
	for _, c := range t.keyCols {
		if !a.Args[c].Equal(b.Args[c]) {
			return false
		}
	}
	return true
}

// findRow locates the live entry sharing tu's primary key in the chain
// for pk, or nil.
func (t *Table) findRow(pk uint64, tu data.Tuple) *Entry {
	for en := t.rows.first(pk); en != nil; en = en.next {
		if !en.Dead && t.samePK(en.Tuple, tu) {
			return en
		}
	}
	return nil
}

func (en *Entry) link() **Entry { return &en.next }

// kill marks an entry dead and removes it from the row map.
func (t *Table) kill(en *Entry) {
	en.Dead = true
	t.rows.unlink(en.pkHash, en)
	t.nlive--
	t.dirty++
	t.held -= size(en.Tuple.Args)
}

// size counts vs's values and those of every list nested in them.
func size(vs []data.Value) int {
	n := len(vs)
	for _, v := range vs {
		if v.Kind == data.KindList {
			n += size(v.List)
		}
	}
	return n
}

// own returns tu with its arguments, and every list nested in them,
// copied into the table's storage.
func (t *Table) own(tu data.Tuple) data.Tuple {
	tu.Args = persistAll(&t.vals, tu.Args)
	return tu
}

// wasteful reports whether the values the table's storage handed out
// that no kept tuple uses outnumber both those it uses and a slab chunk.
func (t *Table) wasteful() bool { return t.vals.taken-t.held > max(t.held, slabMax) }

// renew starts the table's storage over, in one chunk the size of what
// it holds, and copies the live rows into it. The caller copies the
// predicate's shadow rows after them.
func (t *Table) renew() {
	t.moves++
	t.vals = slab[data.Value]{chunk: make([]data.Value, t.held), size: slabMax}
	for _, en := range t.order {
		if !en.Dead {
			en.Tuple = t.own(en.Tuple)
		}
	}
}

// insertHashed stores tu. If an identical tuple exists, it returns the
// existing entry with InsertDuplicate. If a different tuple shares the
// primary key, the old row is replaced (InsertReplaced) and returned as
// the second result (nil otherwise). A stored row owns its values: tu's
// are copied into the table's storage unless owned says they live there
// already. It does not enforce the size bound: the engine runs evict
// after it, to report the evicted rows. hash is tu's structural hash when
// the caller already knows it (0 = compute here), so a hot-path insert
// hashes the tuple at most once.
func (t *Table) insertHashed(tu data.Tuple, ann Annotation, now float64, hash uint64, owned bool) (*Entry, *Entry, InsertStatus) {
	if hash == 0 {
		hash = tu.Hash()
	}
	pk := hash
	if t.keyCols != nil {
		pk = tu.HashCols(t.keyCols)
	}
	if old := t.findRow(pk, tu); old != nil {
		if old.Tuple.Equal(tu) {
			// Refresh soft state: a re-inserted tuple restarts its TTL.
			old.Created = now
			return old, nil, InsertDuplicate
		}
		t.kill(old)
		return t.addEntry(tu, ann, now, pk, hash, owned), old, InsertReplaced
	}
	return t.addEntry(tu, ann, now, pk, hash, owned), nil, InsertNew
}

// addEntry stores a new live row.
func (t *Table) addEntry(tu data.Tuple, ann Annotation, now float64, pk, hash uint64, owned bool) *Entry {
	if !owned {
		tu = t.own(tu)
	}
	t.held += size(tu.Args)
	entry := t.free
	if entry != nil {
		t.free = entry.next
	} else {
		entry = t.entries.alloc()
	}
	*entry = Entry{Tuple: tu, Ann: ann, Created: now, TTL: t.ttl, hash: hash, pkHash: pk}
	t.rows.push(pk, entry)
	t.nlive++
	t.order = append(t.order, entry)
	t.indexInsert(entry)
	return entry
}

// evict enforces maxSize by killing the oldest live rows, returning their
// tuples (nil when nothing was evicted) oldest first.
func (t *Table) evict() []data.Tuple {
	if t.maxSize < 0 {
		return nil
	}
	var out []data.Tuple
	for i := 0; t.nlive > t.maxSize && i < len(t.order); i++ {
		en := t.order[i]
		if en.Dead {
			continue
		}
		t.kill(en)
		out = append(out, en.Tuple)
	}
	return out
}

// Get returns the entry identical to tu, or nil.
func (t *Table) Get(tu data.Tuple) *Entry {
	if en := t.findRow(t.pkHash(tu), tu); en != nil && en.Tuple.Equal(tu) {
		return en
	}
	return nil
}

// Live returns copies of all live, unexpired tuples, in insertion order.
func (t *Table) Live(now float64) []data.Tuple {
	if t.nlive == 0 {
		return nil
	}
	out := make([]data.Tuple, 0, t.nlive)
	for _, en := range t.order {
		if en.Dead || en.expired(now) {
			continue
		}
		out = append(out, en.Tuple)
	}
	return out
}

// LiveCount counts the live, unexpired rows without copying them.
func (t *Table) LiveCount(now float64) int {
	n := 0
	for _, en := range t.order {
		if !en.Dead && !en.expired(now) {
			n++
		}
	}
	return n
}

// anyLive reports whether the table holds a live, unexpired row.
func (t *Table) anyLive(now float64) bool {
	for _, en := range t.order {
		if !en.Dead && !en.expired(now) {
			return true
		}
	}
	return false
}

func (en *Entry) expired(now float64) bool {
	exp, ok := en.ExpiresAt()
	return ok && now >= exp
}

// ExpireTuples kills expired rows and returns their tuples (nil when
// nothing expired), in insertion order, so callers can stream the
// removals to subscribers deterministically. The engine compacts the
// table after.
func (t *Table) ExpireTuples(now float64) []data.Tuple {
	var out []data.Tuple
	for _, en := range t.order {
		if en.Dead || !en.expired(now) {
			continue
		}
		t.kill(en)
		out = append(out, en.Tuple)
	}
	return out
}

// compact drops the dead rows from order and from every index bucket,
// in place: the indexes stay built, the dropped nodes go back to their
// slab and the dead entries, cleared, on the free list. The engine runs it at safe points, when no probe
// is walking a bucket or the order and nothing else points at a dead
// entry (the end of RunToFixpoint, of CompleteRetract, and of an expiry
// sweep, each after dropping the dead entries from the engine's queue).
func (t *Table) compact() {
	for _, idx := range t.indexes {
		if idx == nil {
			continue
		}
		for h, b := range idx.buckets { //provlint:allow mapiter independent per-bucket filters; order cannot escape
			if b = t.filterBucket(b); b.first == nil {
				delete(idx.buckets, h)
			} else {
				idx.buckets[h] = b
			}
		}
	}
	live := t.order[:0]
	for _, en := range t.order {
		if en.Dead {
			*en = Entry{next: t.free}
			t.free = en
		} else {
			live = append(live, en)
		}
	}
	clear(t.order[len(live):])
	t.order = live
	t.dirty = 0
}

// filterBucket unlinks b's dead rows, keeping the others in order.
func (t *Table) filterBucket(b idxBucket) idxBucket {
	var out idxBucket
	for n := b.first; n != nil; {
		next := n.next
		if n.en.Dead {
			t.nodes.put(n)
		} else {
			n.next = nil
			if out.last == nil {
				out.first = n
			} else {
				out.last.next = n
			}
			out.last = n
		}
		n = next
	}
	return out
}

func isDead(en *Entry) bool { return en.Dead }

// bucket returns the first node of the bucket of the index in slot
// (columns cols) whose probe hash is h, building the index on first use.
// A probe walks the chain itself: it skips dead and expired rows, and
// rows whose indexed columns merely collide on h (a join's matchAtom
// rejects those). Callers must not hold a node across table mutations.
func (t *Table) bucket(slot int, cols []int, h uint64) *idxNode {
	return t.index(slot, cols).buckets[h].first
}

// index returns the column index in slot, building it over the live rows
// on first use. The index keeps cols, which the compiled rules own and
// never change.
func (t *Table) index(slot int, cols []int) *colIndex {
	for len(t.indexes) <= slot {
		t.indexes = append(t.indexes, nil)
	}
	idx := t.indexes[slot]
	if idx == nil {
		idx = &colIndex{cols: cols, buckets: make(map[uint64]idxBucket)}
		for _, en := range t.order {
			if !en.Dead {
				idx.push(en.Tuple.HashArgs(cols), en, &t.nodes)
			}
		}
		t.indexes[slot] = idx
	}
	return idx
}

// indexInsert adds a new entry to every built index.
func (t *Table) indexInsert(en *Entry) {
	for _, idx := range t.indexes {
		if idx != nil {
			idx.push(en.Tuple.HashArgs(idx.cols), en, &t.nodes)
		}
	}
}

// Size returns the number of live rows.
func (t *Table) Size() int { return t.nlive }
