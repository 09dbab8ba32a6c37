// Package faultnet is a deterministic fault-injecting wrapper around a
// transport: it drops, duplicates, delays, and partitions frames under
// a seeded RNG, so convergence and termination tests can script the
// network weather and replay it exactly. It implements core.Transport
// and wraps any transport that does (internal/netsim, internal/nettcp).
//
// # Fault model
//
// Faults are decided per outbound frame at Send time, in frame
// order, from one seeded RNG — the schedule is a pure function of the
// seed and the operation sequence, so a failing run replays from its
// seed (drive the scheduler with -sequential for a strictly
// reproducible operation order).
//
//   - drop: the frame is silently discarded above the transport. This
//     models loss before the reliability layer ever sees the frame, so
//     nothing retransmits it — only application-level soft-state
//     refresh can re-supply the contents.
//   - duplicate: the frame is forwarded twice. Over a raw transport
//     both copies surface; receivers must be idempotent (provnet
//     engines are: set semantics, per-sender support merging).
//   - delay: the frame is parked in limbo and released after a seeded
//     number of transport operations (any Send/Drain/Tick advances the
//     clock). Limbo frames count in InFlight but NOT in
//     PendingCount: a delayed frame is on the wire — the
//     sender has not been acknowledged, but no receiver inbox can see
//     it yet. A termination detector that consults InFlight refuses to
//     declare; a receiver-side idle heuristic sees silence and falsely
//     fires. That asymmetry is the point.
//   - partition: frames on a partitioned directed link are held and
//     released when the partition heals (modelling a connectivity
//     outage that TCP outlives), or dropped if the partition never
//     heals before Close.
//
// The operation clock only advances when the wrapper is used; an idle
// system keeps its limbo frozen, which is exactly what the
// no-false-fixpoint tests need (ReleaseAll unfreezes explicitly, Tick
// advances one step). Live deployments set Config.AutoReleaseEvery so
// a background ticker keeps the clock moving while the system idles.
package faultnet

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"provnet/internal/netsim"
)

// Transport is the surface faultnet wraps: a structural copy of
// core.Transport, method for method. It is a copy, not an import,
// because core's tests import faultnet, so faultnet may not import core.
type Transport interface {
	AddNode(name string)
	Send(from, to string, payload []byte) error
	Drain(to string) []netsim.Message
	PendingCount() int
	Stats() netsim.Stats
	Notify(fn func())
	SetRestartHandler(fn func(process string))
	InFlight() int
	Flush(ctx context.Context) error
	QueueDepths() map[string]int
	Close() error
}

// Partition is one scripted directed-link outage, active while the
// operation clock is in [From, To): frames sent on matching links
// during that window are held until the clock reaches To.
type Partition struct {
	// Src/Dst match the directed link; empty matches any node.
	Src, Dst string
	// From/To bound the outage on the operation clock; To == 0 means
	// the partition never heals (held frames drop at Close).
	From, To int64
}

// Config configures the fault schedule.
type Config struct {
	// Seed seeds the fault RNG. Runs with equal seeds and equal
	// operation sequences inject identical faults.
	Seed int64
	// Drop, Dup, Delay are per-frame probabilities in [0,1).
	Drop, Dup, Delay float64
	// DelayOps bounds how many transport operations a delayed frame
	// waits in limbo (default 8; the actual hold is seeded per frame).
	DelayOps int
	// Partitions scripts directed-link outages on the operation clock.
	Partitions []Partition
	// AutoReleaseEvery, when positive, runs a background ticker that
	// advances the op clock (one Tick per period) so limbo frames
	// eventually release even while the system is idle. Tests leave it
	// zero for a fully scripted clock; live runs want ~10ms.
	AutoReleaseEvery time.Duration
}

// Faults counts injected faults (distinct from the transport's own
// Stats, which only see what faultnet lets through).
type Faults struct {
	Dropped     int64 // frames discarded
	Duplicated  int64 // extra copies forwarded
	Delayed     int64 // frames that entered limbo
	Partitioned int64 // frames held by a partition
	Limbo       int64 // frames currently held (limbo + partitions)
}

// limboFrame is one held frame and its release condition.
type limboFrame struct {
	from, to string
	payload  []byte
	dueOp    int64 // release when the op clock reaches this
}

// Net wraps an inner transport with the fault schedule. Safe for
// concurrent use; the RNG draws are serialized in operation order.
type Net struct {
	inner Transport
	cfg   Config

	mu    sync.Mutex
	rng   *rand.Rand
	ops   int64
	limbo []limboFrame
	// fwd counts frames taken out of limbo but not yet handed to the
	// inner transport (forwarding happens outside mu because the inner
	// send may block). Without it a released frame would be invisible
	// to both InFlight and the inner PendingCount for a moment — a gap
	// a termination detector could declare a false fixpoint through.
	fwd int
	f   Faults

	notify func()

	stop     chan struct{}
	stopOnce sync.Once
}

// New wraps inner under cfg's fault schedule.
func New(inner Transport, cfg Config) *Net {
	if cfg.DelayOps <= 0 {
		cfg.DelayOps = 8
	}
	n := &Net{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		stop:  make(chan struct{}),
	}
	if cfg.AutoReleaseEvery > 0 {
		go n.autoRelease(cfg.AutoReleaseEvery)
	}
	return n
}

// autoRelease advances the op clock on a wall-clock ticker so limbo
// drains even while the system is otherwise idle.
func (n *Net) autoRelease(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.Tick()
		}
	}
}

// AddNode registers a node on the inner transport.
func (n *Net) AddNode(name string) { n.inner.AddNode(name) }

// Notify registers the arrival callback: inner arrivals fire it via the
// inner transport's own Notify, and limbo releases fire it directly so a
// woken frame wakes the scheduler.
func (n *Net) Notify(fn func()) {
	n.mu.Lock()
	n.notify = fn
	n.mu.Unlock()
	n.inner.Notify(fn)
}

// Send rolls the fault dice for one frame: it may be dropped,
// duplicated, delayed, or held by a partition; otherwise it forwards
// unharmed. The roll order is deterministic per (seed, operation
// sequence).
func (n *Net) Send(from, to string, payload []byte) error {
	n.mu.Lock()
	n.ops++
	n.releaseDueLocked()
	if p, held := n.partitionedLocked(from, to); held {
		n.f.Partitioned++
		n.limbo = append(n.limbo, limboFrame{from: from, to: to, payload: payload, dueOp: p.To})
		n.mu.Unlock()
		return nil
	}
	roll := n.rng.Float64()
	switch {
	case roll < n.cfg.Drop:
		n.f.Dropped++
		n.mu.Unlock()
		return nil
	case roll < n.cfg.Drop+n.cfg.Dup:
		n.f.Duplicated++
		n.mu.Unlock()
		if err := n.inner.Send(from, to, payload); err != nil {
			return err
		}
		return n.inner.Send(from, to, payload)
	case roll < n.cfg.Drop+n.cfg.Dup+n.cfg.Delay:
		n.f.Delayed++
		hold := int64(n.rng.Intn(n.cfg.DelayOps)) + 1
		n.limbo = append(n.limbo, limboFrame{from: from, to: to, payload: payload, dueOp: n.ops + hold})
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()
	return n.inner.Send(from, to, payload)
}

// partitionedLocked reports whether the (from,to) link is inside an
// active partition window at the current op clock.
func (n *Net) partitionedLocked(from, to string) (Partition, bool) {
	for _, p := range n.cfg.Partitions {
		if p.Src != "" && p.Src != from {
			continue
		}
		if p.Dst != "" && p.Dst != to {
			continue
		}
		if n.ops >= p.From && (p.To == 0 || n.ops < p.To) {
			return p, true
		}
	}
	return Partition{}, false
}

// releaseDueLocked forwards limbo frames whose due op has passed.
// Frames held by a never-healing partition (dueOp 0) stay. Caller holds
// n.mu; inner sends and the notify fire after unlock via the returned
// closure pattern below — here we collect and forward inline after
// swapping, so callers must not hold inner locks.
func (n *Net) releaseDueLocked() {
	if len(n.limbo) == 0 {
		return
	}
	var due []limboFrame
	kept := n.limbo[:0]
	for _, lf := range n.limbo {
		if lf.dueOp != 0 && n.ops >= lf.dueOp {
			due = append(due, lf)
		} else {
			kept = append(kept, lf)
		}
	}
	n.limbo = kept
	if len(due) == 0 {
		return
	}
	fn := n.notify
	n.fwd += len(due)
	// Forward outside the lock: inner.Send may block (nettcp
	// backpressure) and the notify may re-enter the wrapper. fwd keeps
	// the frames visible to InFlight until the inner transport has them.
	n.mu.Unlock()
	for _, lf := range due {
		_ = n.inner.Send(lf.from, lf.to, lf.payload)
	}
	if fn != nil {
		fn()
	}
	n.mu.Lock()
	n.fwd -= len(due)
}

// Tick advances the operation clock by one and releases due limbo
// frames — the test harness's way to move scripted time forward while
// the system itself is idle.
func (n *Net) Tick() {
	n.mu.Lock()
	n.ops++
	n.releaseDueLocked()
	n.mu.Unlock()
}

// ReleaseAll flushes every held frame (limbo and partitions) to the
// inner transport immediately, regardless of schedule.
func (n *Net) ReleaseAll() {
	n.mu.Lock()
	due := n.limbo
	n.limbo = nil
	fn := n.notify
	n.fwd += len(due)
	n.mu.Unlock()
	for _, lf := range due {
		_ = n.inner.Send(lf.from, lf.to, lf.payload)
	}
	n.mu.Lock()
	n.fwd -= len(due)
	n.mu.Unlock()
	if fn != nil && len(due) > 0 {
		fn()
	}
}

// Drain advances the op clock, releases due limbo frames, and drains
// the inner transport.
func (n *Net) Drain(to string) []netsim.Message {
	n.mu.Lock()
	n.ops++
	n.releaseDueLocked()
	n.mu.Unlock()
	return n.inner.Drain(to)
}

// PendingCount reports the inner backlog only; limbo frames show up in
// InFlight, the sender-side gauge.
func (n *Net) PendingCount() int { return n.inner.PendingCount() }

// InFlight sums the inner transport's in-flight gauge with the limbo
// population — the wrapper's contribution to the distributed termination
// gauge.
func (n *Net) InFlight() int {
	n.mu.Lock()
	held := len(n.limbo) + n.fwd
	n.mu.Unlock()
	return held + n.inner.InFlight()
}

// Flush waits for the limbo to drain (the auto-release ticker or the
// test harness must be advancing the clock), then flushes the inner
// transport. Held frames outrank a flush on purpose: a
// fault schedule models the network, and the network does not hurry
// because a process wants to exit.
func (n *Net) Flush(ctx context.Context) error {
	for {
		n.mu.Lock()
		empty := len(n.limbo) == 0 && n.fwd == 0
		n.mu.Unlock()
		if empty {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return n.inner.Flush(ctx)
}

// SetRestartHandler forwards peer-restart detection from the inner
// transport (nettcp) so soft-state resupply works under fault injection.
func (n *Net) SetRestartHandler(fn func(process string)) { n.inner.SetRestartHandler(fn) }

// Stats passes the inner counters through.
func (n *Net) Stats() netsim.Stats { return n.inner.Stats() }

// QueueDepths passes the inner per-peer outbound backlog through; frames
// held in limbo are not queued at any peer yet and show in InFlight.
func (n *Net) QueueDepths() map[string]int { return n.inner.QueueDepths() }

// Faults reports the injected-fault counters.
func (n *Net) Faults() Faults {
	n.mu.Lock()
	defer n.mu.Unlock()
	f := n.f
	f.Limbo = int64(len(n.limbo))
	return f
}

// Close stops the auto-release ticker and closes the inner transport;
// frames still held by never-healing partitions are dropped with it.
func (n *Net) Close() error {
	n.stopOnce.Do(func() { close(n.stop) })
	return n.inner.Close()
}
