// Package netsim is the simulated network substrate — the default
// implementation of internal/core's Transport interface (its TCP
// sibling is internal/nettcp). The paper's evaluation ran up to 100 P2
// processes on one machine exchanging signed tuples; here the same
// dataflow runs as engines connected by an in-memory message fabric
// with exact byte accounting — the source of the bandwidth numbers in
// Figure 4.
//
// Delivery is deterministic: messages are queued per destination and
// drained by the round-driven scheduler in internal/core in sender
// registration order, then per-sender send order — regardless of which
// goroutines enqueued them, provided each sender name sends from one
// goroutine at a time (as the scheduler's one-worker-per-node phases
// do). The fabric is safe for
// concurrent Send and Drain (per-destination locks, atomic counters), so
// the parallel scheduler can ship exports from all nodes at once. Every
// message is charged its payload size plus a fixed header overhead
// (modelling IP+UDP framing, as P2 used UDP).
package netsim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// HeaderOverhead is the per-message framing charge in bytes (IPv4 + UDP
// headers).
const HeaderOverhead = 28

// Message is one transport datagram.
type Message struct {
	From, To string
	Payload  []byte
	// srcIdx and seq order concurrent sends deterministically: sender
	// registration order, then per-sender send order.
	srcIdx int
	seq    uint64
}

// Size returns the charged size of the message.
func (m Message) Size() int { return len(m.Payload) + HeaderOverhead }

// Stats aggregates transport activity.
type Stats struct {
	Messages   int64
	Bytes      int64 // includes header overhead
	DroppedMsg int64 // sends to unknown nodes

	// Link-liveness counters, populated only by transports with real
	// connections (nettcp): re-established connections, frames requeued
	// after a write failure, and received frames parked because their
	// destination node is not yet registered. Always zero on the
	// in-memory fabric, so cross-transport Stats comparisons still hold.
	Reconnects int64
	Requeues   int64
	Parked     int64

	// Reliability counters, populated only by transports running the
	// ack protocol (nettcp with Reliable set): ack control frames carried
	// on the wire (and their bytes), data frames re-sent from the unacked
	// window after a reconnect, duplicate frames suppressed by the
	// receive-side sequence window, and sends that blocked on a full
	// window (backpressure into the scheduler). Always zero on the
	// in-memory fabric, which is lossless by construction.
	AckMessages   int64
	AckBytes      int64
	Retransmits   int64
	DupDropped    int64
	Backpressured int64
}

// endpoint is one registered node's transport state. drained is the
// inbox the last Drain handed out: the next Drain clears it and makes it
// the queue, so Send appends into an array that has already grown to a
// round's traffic instead of regrowing one from nil.
type endpoint struct {
	idx int // registration order
	seq atomic.Uint64

	mu      sync.Mutex
	queue   []Message
	drained []Message
}

// Network is the in-memory fabric connecting named nodes. Send and Drain
// are safe for concurrent use; AddNode is not (register all nodes before
// running traffic).
type Network struct {
	mu    sync.RWMutex // guards nodes against AddNode
	nodes map[string]*endpoint

	messages atomic.Int64
	bytes    atomic.Int64
	dropped  atomic.Int64

	// orphanSeq orders sends from unregistered senders (test traffic
	// injected straight onto the fabric).
	orphanSeq atomic.Uint64
}

// New creates an empty network.
func New() *Network {
	return &Network{nodes: make(map[string]*endpoint)}
}

// AddNode registers a node. Registration order defines the scheduler's
// round order and the drain order among concurrent senders.
func (n *Network) AddNode(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[name]; ok {
		return
	}
	n.nodes[name] = &endpoint{idx: len(n.nodes)}
}

// Send enqueues a message, charging its bytes. Sends to unregistered
// nodes are counted as drops and return an error. Safe for concurrent
// use; concurrent sends drain in (sender registration, send order), the
// same order a sequential scheduler would produce.
func (n *Network) Send(from, to string, payload []byte) error {
	n.mu.RLock()
	dst, ok := n.nodes[to]
	src := n.nodes[from]
	n.mu.RUnlock()
	if !ok {
		n.dropped.Add(1)
		return fmt.Errorf("netsim: send to unknown node %q", to)
	}
	msg := Message{From: from, To: to, Payload: payload}
	if src != nil {
		msg.srcIdx = src.idx
		msg.seq = src.seq.Add(1)
	} else {
		// Unregistered senders (test traffic injected straight onto the
		// fabric) sort after every registered node, then by name — the
		// shared counter only orders sends within one sender name.
		msg.srcIdx = int(^uint(0) >> 1)
		msg.seq = n.orphanSeq.Add(1)
	}
	n.messages.Add(1)
	n.bytes.Add(int64(msg.Size()))
	dst.mu.Lock()
	dst.queue = append(dst.queue, msg)
	dst.mu.Unlock()
	return nil
}

// Drain removes and returns all messages queued for node to, ordered by
// (sender registration order, per-sender send order) — the order a
// sequential round scheduler produces, whatever goroutines enqueued them.
// The returned slice is valid until the next Drain of the same node,
// which takes its array back as the inbox; the payloads stay the
// caller's.
func (n *Network) Drain(to string) []Message {
	n.mu.RLock()
	dst := n.nodes[to]
	n.mu.RUnlock()
	if dst == nil {
		return nil
	}
	dst.mu.Lock()
	msgs := dst.queue
	clear(dst.drained) // the inbox keeps no payload of the round drained before
	dst.queue, dst.drained = dst.drained[:0], msgs
	dst.mu.Unlock()
	slices.SortStableFunc(msgs, func(a, b Message) int {
		if c := cmp.Compare(a.srcIdx, b.srcIdx); c != 0 {
			return c
		}
		if c := cmp.Compare(a.From, b.From); c != 0 { // distinct unregistered senders
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return msgs
}

// PendingCount returns the number of undelivered messages.
func (n *Network) PendingCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := 0
	for _, ep := range n.nodes {
		ep.mu.Lock()
		total += len(ep.queue)
		ep.mu.Unlock()
	}
	return total
}

// Stats returns a copy of the transport counters.
func (n *Network) Stats() Stats {
	return Stats{
		Messages:   n.messages.Load(),
		Bytes:      n.bytes.Load(),
		DroppedMsg: n.dropped.Load(),
	}
}

// Notify does nothing: the fabric carries only what the round scheduler
// ships itself, so no arrival needs announcing.
func (n *Network) Notify(func()) {}

// SetRestartHandler does nothing: a node on the fabric never restarts.
func (n *Network) SetRestartHandler(func(string)) {}

// InFlight is always zero: Send enqueues at the receiver before it
// returns.
func (n *Network) InFlight() int { return 0 }

// Flush returns at once: nothing is ever in flight.
func (n *Network) Flush(context.Context) error { return nil }

// QueueDepths is nil: the fabric has no peers and no outbound queues.
func (n *Network) QueueDepths() map[string]int { return nil }

// Close releases nothing; the fabric holds no OS resources.
func (n *Network) Close() error { return nil }
