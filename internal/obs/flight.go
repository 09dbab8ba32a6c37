package obs

import "sync"

// DefFlightCap is the default flight-recorder capacity. 256 rounds of
// history covers several full convergences plus churn repair waves
// while keeping the ring under ~100KB.
const DefFlightCap = 256

// A RoundRecord is one scheduler step as the flight recorder saw it:
// what came in, what went out, what the engines did, and where time
// went. Counts are per-round (diffs of the cumulative counters), not
// totals. The JSON field names are the versioned wire schema served
// by /v1/debug/rounds — additive changes only.
type RoundRecord struct {
	// Seq is assigned by the recorder, strictly increasing across the
	// process lifetime (not reset by ring wraparound).
	Seq int64 `json:"seq"`
	// Kind is "round" (a forward delta round), "retract" (a DRed
	// drain/repair phase round), or "quiesce" (a quiescence decision:
	// view publish + store seal).
	Kind      string `json:"kind"`
	StartNs   int64  `json:"start_unix_ns"`
	WallNs    int64  `json:"wall_ns"`
	Waves     int64  `json:"waves"`
	DeltasIn  int64  `json:"deltas_in"`
	DeltasOut int64  `json:"deltas_out"`
	Firings   int64  `json:"firings"`
	Retracted int64  `json:"retracted"`
	SealNs    int64  `json:"seal_ns"`
	VerifyNs  int64  `json:"verify_ns"`
	// TransportPending is the transport's undelivered inbound count at
	// the end of the step; PeerQueues is its outbound backlog per peer
	// (nil on the in-memory fabric, which has no peers).
	TransportPending int            `json:"transport_pending"`
	PeerQueues       map[string]int `json:"peer_queues,omitempty"`
	// StoreLag is the store log's queued+in-flight event count — how
	// far the durable writer trails the engines.
	StoreLag int `json:"store_lag"`
}

// Flight is a bounded ring of RoundRecords. Record is
// mutex-guarded but round-granular (called once per scheduler step,
// never per tuple), so the lock is uncontended in practice; Snapshot
// copies out under the same lock.
type Flight struct {
	mu   sync.Mutex
	buf  []RoundRecord
	next int   // index of the slot Record writes next
	n    int   // occupied slots, ≤ len(buf)
	seq  int64 // total records ever, drives RoundRecord.Seq
}

// NewFlight returns a recorder holding the last capacity records.
func NewFlight(capacity int) *Flight {
	if capacity < 1 {
		capacity = 1
	}
	return &Flight{buf: make([]RoundRecord, capacity)}
}

// Record appends r, overwriting the oldest record when full, and
// assigns r.Seq. Nil-safe.
func (f *Flight) Record(r RoundRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.seq++
	r.Seq = f.seq
	f.buf[f.next] = r
	f.next = (f.next + 1) % len(f.buf)
	if f.n < len(f.buf) {
		f.n++
	}
	f.mu.Unlock()
}

// Snapshot returns the retained records oldest-first. The slice is a
// copy; callers own it. Nil-safe (returns nil).
func (f *Flight) Snapshot() []RoundRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RoundRecord, 0, f.n)
	start := f.next - f.n
	if start < 0 {
		start += len(f.buf)
	}
	for i := 0; i < f.n; i++ {
		out = append(out, f.buf[(start+i)%len(f.buf)])
	}
	return out
}
