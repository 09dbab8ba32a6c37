package core

import (
	"context"

	"provnet/internal/netsim"
)

// Transport is the message substrate the scheduler runs over: named nodes
// exchange opaque datagrams (the frames of wire.go). Three
// implementations exist: internal/netsim, the in-memory fabric every
// single-process run uses; internal/nettcp, a real TCP backend that lets
// N OS processes host one node each (see docs/ARCHITECTURE.md); and
// internal/faultnet, which wraps either under a seeded fault schedule.
// A transport carries datagrams, not sessions: it never looks inside a
// payload, and every traffic class (data, retract, session handshake,
// termination token) is charged the same way.
//
// Contract:
//
//   - Send enqueues one datagram for a destination node and charges its
//     bytes to the stats. Sends to unknown destinations are counted as
//     drops and return an error.
//   - Drain removes and returns everything queued for one node. The
//     slice is valid until that node's next Drain (the transport may
//     take its array back then); the payloads stay the caller's.
//     Datagrams from one sender MUST be delivered in send order (the
//     session handshake precedes the data frames it unlocks). The in-memory
//     fabric additionally guarantees the deterministic
//     (sender-registration, per-sender send) total order the
//     bit-equality pins rely on; a socket transport only promises the
//     per-sender order, which is enough for the fixpoint to converge to
//     the same tables (Datalog evaluation is confluent).
//   - Stats counters are cumulative and safe for concurrent use.
//   - A datagram accepted by Send but not yet acknowledged (or still
//     parked in a fault injector's limbo) is in flight, and no fixpoint
//     may be declared over it. A transport that delivers inside Send (the
//     in-memory fabric) has nothing in flight or to flush, no peer
//     queues, and never calls the Notify or restart callbacks.
type Transport interface {
	// AddNode registers a node hosted by this process. Register all local
	// nodes before running traffic.
	AddNode(name string)
	// Send enqueues a datagram, charging its bytes.
	Send(from, to string, payload []byte) error
	// Drain removes and returns all datagrams queued for a local node;
	// the slice is valid until the node's next Drain.
	Drain(to string) []netsim.Message
	// PendingCount reports the total local inbound backlog.
	PendingCount() int
	// Stats returns a copy of the transport counters.
	Stats() netsim.Stats
	// Notify registers a callback fired after every asynchronous inbound
	// enqueue; the lifecycle driver uses it to wake for datagrams a
	// remote peer ships between rounds.
	Notify(fn func())
	// SetRestartHandler registers a callback fired when a peer process
	// joins or restarts (a new hello incarnation); the driver re-supplies
	// its exports, since a restarted peer lost its tables.
	SetRestartHandler(fn func(process string))
	// InFlight reports locally originated datagrams accepted but not yet
	// safely delivered; the termination detector holds the token while it
	// is nonzero.
	InFlight() int
	// Flush blocks until InFlight is zero or ctx ends; the detector
	// flushes before the terminate broadcast so no process exits with
	// undelivered frames in its window.
	Flush(ctx context.Context) error
	// QueueDepths reports the outbound backlog per peer (nil when the
	// transport has no peers); read at scrape and round granularity.
	QueueDepths() map[string]int
	// Close releases the transport's OS resources. It may be called more
	// than once.
	Close() error
}

// Close releases the network's resources: the lifecycle driver (pump,
// subscriptions), the configured Store (flushed and closed), and the
// transport. In-memory runs without a Store need no Close; TCP-backed or
// durable runs should defer it.
func (n *Network) Close() error {
	err := n.Driver().Close()
	if n.store != nil {
		n.latchStoreErr(n.store.Close())
		if err == nil {
			err = n.StoreErr()
		}
	}
	if cerr := n.net.Close(); err == nil {
		err = cerr
	}
	return err
}
