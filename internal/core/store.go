package core

import (
	"sort"
	"strings"
	"sync"

	"provnet/internal/data"
)

// The Store interface is the durability seam of the network: every table
// change at every hosted node is reported to the configured Store as an
// ordered event stream, and quiescence points seal/flush it. The default
// (Config.Store == nil) keeps the seed behavior — tables and provenance
// live only in the engines' in-memory maps — exactly as Transport == nil
// keeps the in-memory netsim fabric. internal/storelog supplies the
// durable append-only implementation; MemStore below materializes the
// stream in memory for tests and as the reference replay semantics.
//
// Events for one node arrive in that node's deterministic engine order
// (the scheduler serializes each node's evaluation), so a faithful Store
// replay reconstructs tables and condensed provenance bit-identical to
// the live run — pinned by storelog's TestStoreLogMatchesMemory.

// EventKind classifies one store event.
type EventKind uint8

const (
	// EvInsert: the tuple entered the node's table.
	EvInsert EventKind = iota
	// EvRetract: the tuple left the table via retraction (the row moves
	// to the stale tier, mirroring §4.2's offline provenance story).
	EvRetract
	// EvExpire: the tuple's soft-state TTL lapsed (no stale history —
	// expiry is the normal death of soft state, not a withdrawal).
	EvExpire
	// EvProv: the tuple stayed put but its provenance annotation absorbed
	// an alternative derivation; Prov carries the new condensed expression.
	EvProv
)

// String names the kind (used in logs and storelog's record layout docs).
func (k EventKind) String() string {
	switch k {
	case EvInsert:
		return "insert"
	case EvRetract:
		return "retract"
	case EvExpire:
		return "expire"
	case EvProv:
		return "prov"
	default:
		return "event?"
	}
}

// StoreEvent is one table change, as appended to a Store.
type StoreEvent struct {
	Kind EventKind
	// Node is the engine the change happened at.
	Node string
	// Tuple is the changed fact.
	Tuple data.Tuple
	// Prov is the condensed provenance expression of the tuple after the
	// change ("" unless the network runs ModeCondensed).
	Prov string
	// At is the logical clock at the time of the change.
	At float64
}

// Store persists the event stream. Append is called synchronously from
// the owning node's scheduler task (concurrently across nodes, never
// concurrently for one node); Seal/Flush/Pending/Close are called from
// the driver with no engine locks held. Implementations must be safe for
// that concurrency and should make Append cheap (buffer, hand off to a
// writer goroutine) — it sits on the evaluation path.
type Store interface {
	// Append records one event. Errors are sticky: the driver surfaces
	// the first failure and stops appending.
	Append(ev StoreEvent) error
	// Seal marks a quiescent point (a distributed fixpoint). It reports
	// a store that can take no more events; storelog writes nothing for
	// it, since its recovery replays the whole event log.
	Seal() error
	// Flush blocks until every appended event is durable.
	Flush() error
	// Pending reports buffered events not yet durable; the driver's
	// quiescence decision drains it to zero first (mirroring
	// Transport.PendingCount).
	Pending() int
	// Close flushes and releases resources.
	Close() error
}

// --- replay state (shared by MemStore and storelog recovery) ---

// StoredRow is one materialized fact in a StoreState.
type StoredRow struct {
	Tuple data.Tuple
	// Prov is the latest condensed provenance expression ("" when the
	// run kept none).
	Prov string
	// At is the logical clock of the insertion.
	At float64
	// StaleAt is the logical clock of the retraction (stale rows only).
	StaleAt float64
}

// NodeState is one node's materialized store: live rows plus the stale
// tier retaining retracted facts for forensics.
type NodeState struct {
	Rows  map[string]StoredRow // key: Tuple.Key()
	Stale map[string]StoredRow
}

// StoreState materializes a store event stream: the replay semantics a
// durable backend must reproduce. Apply is deterministic — two identical
// event streams yield identical states — which is what lets storelog pin
// recovery bit-identical to the in-memory run.
type StoreState struct {
	Nodes map[string]*NodeState
	// Clock is the logical time of the last applied event.
	Clock float64
}

// NewStoreState returns an empty state.
func NewStoreState() *StoreState {
	return &StoreState{Nodes: make(map[string]*NodeState)}
}

func (s *StoreState) node(name string) *NodeState {
	ns := s.Nodes[name]
	if ns == nil {
		ns = &NodeState{Rows: make(map[string]StoredRow), Stale: make(map[string]StoredRow)}
		s.Nodes[name] = ns
	}
	return ns
}

// Apply folds one event into the state.
func (s *StoreState) Apply(ev StoreEvent) {
	ns := s.node(ev.Node)
	key := ev.Tuple.Key() //provlint:allow keystring store-state rows are keyed on the canonical bytes; the replay contract storelog pins
	switch ev.Kind {
	case EvInsert:
		ns.Rows[key] = StoredRow{Tuple: ev.Tuple, Prov: ev.Prov, At: ev.At}
		// A re-derivation supersedes any stale record of the fact.
		delete(ns.Stale, key)
	case EvProv:
		if row, ok := ns.Rows[key]; ok {
			row.Prov = ev.Prov
			ns.Rows[key] = row
		}
	case EvRetract:
		if row, ok := ns.Rows[key]; ok {
			delete(ns.Rows, key)
			row.StaleAt = ev.At
			ns.Stale[key] = row
		}
	case EvExpire:
		delete(ns.Rows, key)
	}
	if ev.At > s.Clock {
		s.Clock = ev.At
	}
}

// LiveDump renders the live rows as sorted "node\ttuple\tprov" lines, the
// same shape ReadView.Dump produces — the two are compared verbatim by
// the storelog determinism pin.
func (s *StoreState) LiveDump() string {
	var lines []string
	for name, ns := range s.Nodes { //provlint:allow mapiter collected lines are sorted before joining
		for _, row := range ns.Rows {
			lines = append(lines, name+"\t"+row.Tuple.String()+"\t"+row.Prov)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Dump renders the full state — live rows plus the stale tier — as sorted
// lines, for whole-state comparisons across recovery runs.
func (s *StoreState) Dump() string {
	var lines []string
	for name, ns := range s.Nodes { //provlint:allow mapiter collected lines are sorted before joining
		for _, row := range ns.Rows {
			lines = append(lines, "live\t"+name+"\t"+row.Tuple.String()+"\t"+row.Prov)
		}
		for _, row := range ns.Stale {
			lines = append(lines, "stale\t"+name+"\t"+row.Tuple.String()+"\t"+row.Prov)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// --- in-memory reference implementation ---

// MemStore materializes the event stream in memory: the reference Store
// implementation (and the oracle half of TestStoreLogMatchesMemory). It
// is safe for concurrent appends from all scheduler tasks.
type MemStore struct {
	mu     sync.Mutex
	state  *StoreState
	events int
	seals  int
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{state: NewStoreState()} }

// Append folds the event into the materialized state.
func (m *MemStore) Append(ev StoreEvent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state.Apply(ev)
	m.events++
	return nil
}

// Seal counts the quiescent point (memory needs no checkpoints).
func (m *MemStore) Seal() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seals++
	return nil
}

// Flush is a no-op: appends are immediately "durable" in memory.
func (m *MemStore) Flush() error { return nil }

// Pending is always zero.
func (m *MemStore) Pending() int { return 0 }

// Close is a no-op.
func (m *MemStore) Close() error { return nil }

// Events returns the number of appended events.
func (m *MemStore) Events() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}

// Seals returns the number of sealed quiescent points.
func (m *MemStore) Seals() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seals
}

// State returns a deep copy of the materialized state.
func (m *MemStore) State() *StoreState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewStoreState()
	out.Clock = m.state.Clock
	for name, ns := range m.state.Nodes { //provlint:allow mapiter map-to-map copy; order cannot escape
		cp := &NodeState{Rows: make(map[string]StoredRow, len(ns.Rows)), Stale: make(map[string]StoredRow, len(ns.Stale))}
		for k, v := range ns.Rows { //provlint:allow mapiter map-to-map copy; order cannot escape
			cp.Rows[k] = v
		}
		for k, v := range ns.Stale { //provlint:allow mapiter map-to-map copy; order cannot escape
			cp.Stale[k] = v
		}
		out.Nodes[name] = cp
	}
	return out
}
