package core

import (
	"context"
	"io"

	"provnet/internal/netsim"
)

// Transport is the message substrate the scheduler runs over: named nodes
// exchange opaque datagrams (the frames of wire.go). Two
// implementations exist: internal/netsim, the in-memory fabric every
// single-process run uses, and internal/nettcp, a real TCP backend that
// lets N OS processes host one node each (see docs/ARCHITECTURE.md).
//
// Contract:
//
//   - Send/SendTagged enqueue one datagram for a destination node and
//     charge its bytes to the stats. Sends to unknown destinations are
//     counted as drops and return an error.
//   - Drain removes and returns everything queued for one node. Datagrams
//     from one sender MUST be delivered in send order (the session
//     handshake precedes the data frames it unlocks). The in-memory
//     fabric additionally guarantees the deterministic
//     (sender-registration, per-sender send) total order the
//     bit-equality pins rely on; a socket transport only promises the
//     per-sender order, which is enough for the fixpoint to converge to
//     the same tables (Datalog evaluation is confluent).
//   - Stats counters are cumulative and safe for concurrent use.
//
// A transport that holds OS resources should also implement io.Closer
// (Network.Close releases it), and one that receives datagrams
// asynchronously should implement Notifier so the lifecycle driver wakes
// when traffic arrives between rounds. Reliable or lossy transports
// additionally implement the optional gauges below: InFlighter is what
// lets the termination detector distinguish "quiet" from "done" — a
// datagram accepted by Send but not yet acknowledged (or still parked in
// a fault injector's limbo) is in flight, and no fixpoint may be
// declared over it.
type Transport interface {
	// AddNode registers a node hosted by this process. Register all local
	// nodes before running traffic.
	AddNode(name string)
	// Send enqueues a datagram, charging its bytes.
	Send(from, to string, payload []byte) error
	// SendTagged is Send with a traffic-class tag: handshake marks
	// control-plane datagrams so the stats split handshake from data.
	SendTagged(from, to string, payload []byte, handshake bool) error
	// Drain removes and returns all datagrams queued for a local node.
	Drain(to string) []netsim.Message
	// PendingFor reports the backlog queued for one local node.
	PendingFor(to string) int
	// PendingCount reports the total local backlog.
	PendingCount() int
	// Stats returns a copy of the transport counters.
	Stats() netsim.Stats
	// ResetStats zeroes the counters (per-experiment runs).
	ResetStats()
}

// Notifier is implemented by transports that receive datagrams
// asynchronously (sockets, not the round-driven in-memory fabric). The
// registered callback fires after every inbound enqueue; the lifecycle
// driver uses it to mark itself dirty so the pump re-enters the round
// loop when a remote peer ships work between rounds.
type Notifier interface {
	Notify(fn func())
}

// InFlighter is implemented by transports that can say how many locally
// originated datagrams are accepted but not yet safely delivered
// (unacknowledged reliability windows, fault-injector limbo). The
// termination detector refuses to pass a token while InFlight is
// nonzero: those datagrams will surface as future work somewhere.
type InFlighter interface {
	InFlight() int
}

// Flusher is implemented by transports that can block until every
// locally originated datagram is acknowledged. The termination detector
// flushes before the terminate broadcast so no process exits with
// undelivered frames in its window.
type Flusher interface {
	Flush(ctx context.Context) error
}

// RestartNotifier is implemented by transports that detect a peer
// process restarting (a new hello incarnation on a known link). The
// network uses it to trigger soft-state re-announcement: the restarted
// peer lost its tables, so every neighbour re-supplies its current
// exports.
type RestartNotifier interface {
	SetRestartHandler(fn func(process string))
}

// Close releases the network's resources: the lifecycle driver (pump,
// subscriptions), the configured Store (flushed and closed), and the
// transport, when it holds sockets. In-memory runs without a Store need
// no Close; TCP-backed or durable runs should defer it.
func (n *Network) Close() error {
	err := n.Driver().Close()
	if n.store != nil {
		if serr := n.store.Close(); serr != nil {
			n.storeErr.CompareAndSwap(nil, &serr)
		}
		if err == nil {
			err = n.StoreErr()
		}
	}
	if c, ok := n.net.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
