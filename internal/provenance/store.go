package provenance

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"sync"

	"provnet/internal/data"
)

// KeyOf returns the compact provenance key of a tuple: a truncated hash
// of its canonical encoding. Distributed provenance ships (node, key)
// pointers with every tuple, so the key is fixed-size to keep the
// paper's "no extra communication overhead" property of the mode. The
// sha256-over-Key() construction is the wire format and cannot change.
// It is computed once per tuple a Store records; Store.Key returns the
// recorded key without hashing again.
func KeyOf(t data.Tuple) string {
	var buf [128]byte
	sum := sha256.Sum256(t.AppendKey(buf[:0]))
	var key [24]byte
	hex.Encode(key[:], sum[:12])
	return string(key[:])
}

// Ref points to a tuple's provenance at a node: the pointer of distributed
// provenance (§4.1). Instead of shipping derivation trees, each node keeps
// its own derivations and remote children are chased on demand during a
// traceback query — the analogy the paper draws to IP traceback state kept
// at routers.
type Ref struct {
	Node string
	Key  string
}

// Derivation is one locally recorded rule firing.
type Derivation struct {
	Rule string
	Loc  string
	// Children reference the body tuples; remote children carry the node
	// that shipped them.
	Children []Ref
	// At is the logical time of the firing.
	At float64
}

// Entry is a tuple's locally known provenance. Derivs and Origins only
// ever grow by append, under the store's lock, and no element is ever
// rewritten in place: a reader keeps the copy of the entry the read lock
// handed it (Store.read) and reads its slices' elements after releasing
// the lock.
type Entry struct {
	Key   string
	Tuple data.Tuple
	// Derivs are local rule firings that produced the tuple.
	Derivs []Derivation
	// Origins are remote nodes that shipped the tuple here (each with the
	// key to continue the traceback at that node).
	Origins []Ref
	// Pinned entries survive age-out (marked to persist after a network
	// anomaly, §5).
	Pinned bool
	// At is the first time the tuple's provenance was recorded.
	At float64
	// Stale marks provenance of a withdrawn tuple: the network no longer
	// derives it (link churn retracted it or a keyed update replaced it),
	// but the recorded history remains queryable — the forensic record of
	// what the network used to believe and why. StaleAt is the logical
	// time of the withdrawal. A re-derivation clears the flag.
	Stale   bool
	StaleAt float64

	// hash is Tuple's structural hash, the entry's bucket in Store.byHash.
	hash uint64
}

// addDeriv records d unless an identical firing (same rule, location and
// children; the time is ignored) is already recorded.
func (e *Entry) addDeriv(d Derivation) {
	for _, x := range e.Derivs {
		if x.Rule == d.Rule && x.Loc == d.Loc && slices.Equal(x.Children, d.Children) {
			return
		}
	}
	e.Derivs = append(e.Derivs, d)
}

func (e *Entry) addOrigin(r Ref) {
	if !slices.Contains(e.Origins, r) {
		e.Origins = append(e.Origins, r)
	}
}

// clone returns a deep-enough copy for offline archival.
func (e *Entry) clone() *Entry {
	cp := &Entry{Key: e.Key, Tuple: e.Tuple, Pinned: e.Pinned, At: e.At, Stale: e.Stale, StaleAt: e.StaleAt}
	cp.Derivs = append([]Derivation{}, e.Derivs...)
	cp.Origins = append([]Ref{}, e.Origins...)
	return cp
}

// Store is one node's provenance state, split into the online store
// (provenance of currently valid tuples) and an optional offline store
// retaining provenance past expiry for forensics and accountability
// (§4.2). It is safe for concurrent readers and writers, since traceback
// queries may run while the network executes.
//
// Online entries are indexed twice: by key, for traceback walks, and by
// the tuple's structural hash with Equal deciding within a chain, for
// the tracker, which holds tuples. A tuple's key is computed once, when
// its entry is created.
type Store struct {
	mu     sync.RWMutex
	self   string
	online map[string]*Entry
	byHash map[uint64][]*Entry

	offline        map[string]*Entry
	offlineEnabled bool
	offlineMaxAge  float64 // <0: keep forever

	// vals holds the values of the tuples that arrived from the network,
	// which an entry keeps a copy of (RecordOrigin): chunks of
	// storeChunk values, carved from front to back and never reused.
	vals []data.Value
}

// storeChunk is the size of a chunk of Store.vals.
const storeChunk = 256

// NewStore creates a store for node self with the offline tier disabled.
func NewStore(self string) *Store {
	return &Store{
		self:          self,
		online:        make(map[string]*Entry),
		byHash:        make(map[uint64][]*Entry),
		offline:       make(map[string]*Entry),
		offlineMaxAge: -1,
	}
}

// EnableOffline turns on the offline tier; maxAge < 0 keeps entries
// forever, otherwise AgeOut(now) drops unpinned entries older than maxAge.
func (s *Store) EnableOffline(maxAge float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.offlineEnabled = true
	s.offlineMaxAge = maxAge
}

// Self returns the owning node.
func (s *Store) Self() string { return s.self }

// findLocked returns t's online entry, or nil, with t's structural hash.
func (s *Store) findLocked(t data.Tuple) (*Entry, uint64) {
	h := t.Hash()
	for _, e := range s.byHash[h] {
		if e.Tuple.Equal(t) {
			return e, h
		}
	}
	return nil, h
}

// Key returns t's provenance key: the one its online entry recorded, or
// KeyOf(t) when the store holds none.
func (s *Store) Key(t data.Tuple) string {
	s.mu.RLock()
	e, _ := s.findLocked(t)
	s.mu.RUnlock()
	if e != nil {
		return e.Key
	}
	return KeyOf(t)
}

// entryLocked returns t's entry, creating it (with a copy of t in vals,
// if clone is set) when there is none.
func (s *Store) entryLocked(t data.Tuple, at float64, clone bool) *Entry {
	e, h := s.findLocked(t)
	if e == nil {
		if clone {
			t.Args = s.copyLocked(t.Args)
		}
		e = &Entry{Key: KeyOf(t), Tuple: t, At: at, hash: h}
		s.online[e.Key] = e
		s.byHash[h] = append(s.byHash[h], e)
	}
	return e
}

// copyLocked returns vs copied into vals, with every list nested in it.
func (s *Store) copyLocked(vs []data.Value) []data.Value {
	if len(vs) > cap(s.vals)-len(s.vals) {
		s.vals = make([]data.Value, 0, max(len(vs), storeChunk))
	}
	n := len(s.vals)
	s.vals = append(s.vals, vs...)
	out := s.vals[n:len(s.vals):len(s.vals)]
	for i := range out {
		if out[i].Kind == data.KindList {
			out[i].List = s.copyLocked(out[i].List)
		}
	}
	return out
}

// RecordBase notes a base tuple inserted at this node and returns its key.
func (s *Store) RecordBase(t data.Tuple, at float64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(t, at, false)
	s.mirrorOffline(e)
	return e.Key
}

// RecordDeriv notes a local rule firing and returns the head's key.
func (s *Store) RecordDeriv(head data.Tuple, rule string, children []Ref, at float64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(head, at, false)
	e.addDeriv(Derivation{Rule: rule, Loc: s.self, Children: children, At: at})
	// Mirror even when unchanged: the offline tier may have been enabled
	// after the first recording.
	s.mirrorOffline(e)
	return e.Key
}

// RecordOrigin notes that a tuple arrived from a remote node. A new entry
// keeps a copy of t: a received tuple's values live only as long as the
// import that decoded them.
func (s *Store) RecordOrigin(t data.Tuple, from Ref, at float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(t, at, true)
	e.addOrigin(from)
	s.mirrorOffline(e)
}

// mirrorOffline merges an entry into the offline tier (caller holds
// lock). Merging rather than replacing preserves history across tuple
// expiry and re-derivation: the offline store accumulates everything ever
// known about the tuple.
func (s *Store) mirrorOffline(e *Entry) {
	if !s.offlineEnabled {
		return
	}
	off, ok := s.offline[e.Key]
	if !ok {
		s.offline[e.Key] = e.clone()
		return
	}
	for _, d := range e.Derivs {
		off.addDeriv(d)
	}
	for _, o := range e.Origins {
		off.addOrigin(o)
	}
	off.Pinned = off.Pinned || e.Pinned
}

// Get returns a snapshot of the online entry for a tuple key, taken
// under the read lock (see read).
func (s *Store) Get(key string) (Entry, bool) { return s.read(key, false) }

// GetOffline returns a snapshot of the offline entry for a tuple key.
// Offline entries survive Forget (tuple expiry).
func (s *Store) GetOffline(key string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.offline[key]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// GetAny prefers the online entry and falls back to offline (the paper's
// "in practice, [forensics] would be used in conjunction with online
// provenance").
func (s *Store) GetAny(key string) (Entry, bool) { return s.read(key, true) }

// read returns a copy of key's entry as the read lock publishes it, the
// online entry first and the offline one when offline is set. Entries
// only append, so the elements of the copied Derivs and Origins headers
// stay valid and unchanged after the lock is released, while the live
// entry's headers, flags and times may move on under the next writer.
func (s *Store) read(key string, offline bool) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.online[key]
	if e == nil && offline {
		e = s.offline[key]
	}
	if e == nil {
		return Entry{}, false
	}
	return *e, true
}

// Forget drops a tuple's online provenance (called when its soft state
// expires). The offline copy, if enabled, remains.
func (s *Store) Forget(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.online[key]
	if !ok {
		return
	}
	delete(s.online, key)
	chain := slices.DeleteFunc(s.byHash[e.hash], func(x *Entry) bool { return x == e })
	if len(chain) == 0 {
		delete(s.byHash, e.hash)
	} else {
		s.byHash[e.hash] = chain
	}
}

// MarkStale flags a withdrawn tuple's provenance, online and offline, at
// logical time at. The record stays queryable (live traceback during a
// churning run sees what the network used to derive); fresh support
// recorded later clears the flag via ClearStale.
func (s *Store) MarkStale(key string, at float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.online[key]; ok {
		e.Stale = true
		e.StaleAt = at
	}
	if e, ok := s.offline[key]; ok {
		e.Stale = true
		e.StaleAt = at
	}
}

// ClearStale unmarks a re-derived tuple's provenance.
func (s *Store) ClearStale(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.online[key]; ok {
		e.Stale = false
	}
	if e, ok := s.offline[key]; ok {
		e.Stale = false
	}
}

// Pin marks a tuple's provenance to persist through age-out (e.g. flagged
// during an anomaly for later forensics, §5).
func (s *Store) Pin(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.online[key]; ok {
		e.Pinned = true
	}
	if e, ok := s.offline[key]; ok {
		e.Pinned = true
	}
}

// AgeOut drops unpinned offline entries recorded before now-maxAge,
// returning how many were dropped.
func (s *Store) AgeOut(now float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.offlineEnabled || s.offlineMaxAge < 0 {
		return 0
	}
	n := 0
	for k, e := range s.offline {
		if !e.Pinned && now-e.At > s.offlineMaxAge {
			delete(s.offline, k)
			n++
		}
	}
	return n
}

// OnlineCount and OfflineCount report store sizes.
func (s *Store) OnlineCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.online)
}

// OfflineCount reports the offline tier size.
func (s *Store) OfflineCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.offline)
}

// Keys returns the online keys sorted (for deterministic iteration in
// tools).
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.online))
	for k := range s.online {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
