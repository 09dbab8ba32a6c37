package data

import "sync"

// A process-wide interning table for low-cardinality symbols: predicate
// names, node addresses / destinations, principal (asserter) names. It
// maps a symbol to a small dense integer id so hot-path signatures
// (dependency edges, withdrawal queues) can carry a uint32 instead of
// concatenated strings.
//
// The table is append-only and concurrency-safe: a read-lock fast path
// serves the steady state, a write lock admits new symbols. Ids are
// assigned in first-seen order and never recycled. Symbol cardinality is
// bounded by program text plus topology (predicates, nodes, principals),
// so the table stays small for any real deployment.

type internTable struct {
	mu  sync.RWMutex
	ids map[string]uint32
}

var interner = internTable{ids: make(map[string]uint32, 64)}

// InternID returns the dense id for a symbol, allocating one on first
// sight. Call it only for low-cardinality symbols (destinations,
// predicates, principals) — ids are never freed.
func InternID(s string) uint32 {
	interner.mu.RLock()
	id, ok := interner.ids[s]
	interner.mu.RUnlock()
	if ok {
		return id
	}
	interner.mu.Lock()
	defer interner.mu.Unlock()
	if id, ok = interner.ids[s]; ok {
		return id
	}
	// Copy the key so an interned id never pins a larger buffer the
	// caller sliced s from.
	s = string(append([]byte(nil), s...))
	id = uint32(len(interner.ids))
	interner.ids[s] = id
	return id
}
