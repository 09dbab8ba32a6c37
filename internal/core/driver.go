package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"provnet/internal/data"
)

// Driver is the lifecycle execution surface of a Network: where Run
// drives a one-shot batch to its fixpoint, the driver keeps the same
// round scheduler resumable behind an event inbox, so a long-running
// network can absorb runtime mutations (Inject, Retract, SetLink,
// CutLink, Resupply, Advance — once a driver may step the network, the
// inbox is the only supported way to change it; Network's own methods
// only read), re-converge incrementally (retraction cascades plus normal
// re-propagation instead of a restart), and stream table updates to
// subscribers while it runs.
//
// Two usage modes share one implementation, converge:
//
//   - Synchronous: Run(maxRounds) and AwaitQuiescence call converge on the
//     caller's goroutine (Step advances a single round), so every batch
//     guarantee (bit-identical tables, rounds, and transport stats across
//     the scheduler and transport knobs) carries over.
//   - Live: Start launches a pump goroutine that waits on the inbox and
//     calls converge whenever mutations arrive. AwaitQuiescence then
//     blocks until the pump drains.
//
// All blocking entry points take a context and honor cancellation and
// deadlines mid-round (between node tasks of a phase).
type Driver struct {
	n *Network

	// runMu serializes round execution and engine mutations: the pump (or
	// the synchronous caller) holds it for every step.
	runMu sync.Mutex

	// mu guards the inbox and lifecycle state below; cond broadcasts
	// inbox arrivals, pump quiescence, errors, and shutdown.
	mu      sync.Mutex
	cond    *sync.Cond
	inbox   []driverEvent
	started bool
	closed  bool
	// dirty is true while work may remain: events are queued or the pump
	// has not yet observed a no-progress round since the last arrival.
	dirty bool
	// err is the pump's sticky failure; once set the driver refuses
	// further work.
	err      error
	pumpDone chan struct{}

	// Epoch accounting: AwaitQuiescence reports rounds and wall-clock
	// time since the previous quiescence point (or Start/run entry), the
	// same window a batch Run reports.
	epochStart  time.Time
	epochRounds int

	// Subscriptions. nsubs lets the engines' update observers skip the
	// registry entirely when nobody listens (the common batch case).
	subMu sync.RWMutex
	subs  map[*Subscription]struct{}
	nsubs atomic.Int32

	// view is the latest published copy-on-write table snapshot, sharing
	// its unchanged nodes and tables with its predecessor; readers (the
	// HTTP query API) load it lock-free. viewSeq/viewGen track the
	// last published snapshot's sequence and the mutation generation it
	// captured (guarded by runMu) so content-identical republishes keep
	// their Seq.
	view    atomic.Pointer[ReadView]
	viewSeq uint64
	viewGen uint64
}

// driverEvent is one queued runtime mutation.
type driverEvent struct {
	kind   eventKind
	node   string // where it applies; a link's owner, from; "" for all
	tuples []data.Tuple
	to     string
	link   data.Tuple // evSetLink's replacement fact
	dt     float64    // evAdvance's step of logical time
}

type eventKind uint8

const (
	evInject eventKind = iota
	evRetract
	evSetLink
	evCutLink
	// evResupply replays every hosted node's export log (soft-state
	// re-announcement after a peer process restart; Network.resupply).
	evResupply
	// evAdvance moves logical time on every hosted node (Advance).
	evAdvance
)

// Driver returns the network's lifecycle driver, creating it on first
// use. Run and the driver share one instance, so batch and live usage
// interleave on the same state.
func (n *Network) Driver() *Driver {
	n.drvOnce.Do(func() {
		d := &Driver{n: n, subs: make(map[*Subscription]struct{}), epochStart: time.Now()} //provlint:allow detpath report wall-clock epoch, never feeds evaluation
		d.cond = sync.NewCond(&d.mu)
		d.view.Store(&ReadView{})
		n.drv = d
	})
	return n.drv
}

// Lifecycle errors.
var (
	// ErrClosed is returned by driver operations after Close.
	ErrClosed = errors.New("core: driver closed")
	// ErrLive is returned by synchronous stepping (Step, Run) while the
	// background pump owns the round loop.
	ErrLive = errors.New("core: driver is live; use Inject/AwaitQuiescence")
	// ErrTooManySubscriptions is returned by Subscribe while
	// maxSubscriptions subscriptions are open.
	ErrTooManySubscriptions = errors.New("core: too many live subscriptions")
)

// Start launches the driver's pump: a background loop that applies queued
// mutations and steps the network until each burst of work re-converges.
// The initial base facts count as the first burst, so a started driver
// converges on its own; AwaitQuiescence observes the result. The pump
// stops when ctx is cancelled or Close is called.
func (d *Driver) Start(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.started {
		return errors.New("core: driver already started")
	}
	d.started = true
	d.dirty = true
	d.epochStart = time.Now() //provlint:allow detpath report wall-clock epoch, never feeds evaluation
	d.epochRounds = 0
	d.pumpDone = make(chan struct{})
	// A socket transport delivers datagrams between rounds; its arrival
	// callback marks the driver dirty so the pump re-enters the round
	// loop instead of sleeping on an apparently quiescent network. The
	// in-memory fabric only carries traffic the pump itself shipped, so
	// it never calls back.
	d.n.net.Notify(func() {
		d.mu.Lock()
		if !d.closed && d.err == nil {
			d.dirty = true
			d.cond.Broadcast()
		}
		d.mu.Unlock()
	})
	// Soft-state resupply: when the transport detects a peer process
	// restarting (a fresh hello incarnation), replay our export log so
	// the peer re-learns what it lost with its tables.
	if d.n.resupply {
		d.n.net.SetRestartHandler(func(string) { _ = d.Resupply() })
	}
	// Wake the cond when the context dies, so waiters and the pump notice.
	stop := context.AfterFunc(ctx, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	go func() {
		defer stop()
		d.pump(ctx)
	}()
	return nil
}

// pump is the live-mode loop: wait until dirty, converge, and clear dirty
// iff the driver is still idle.
func (d *Driver) pump(ctx context.Context) {
	defer close(d.pumpDone)
	// If the pump dies with its context, the driver must not keep
	// accepting work it will never process, and waiters must not read
	// the un-converged state as quiescence: record the context's error
	// as the sticky failure (unless Close already ended the session).
	defer func() {
		d.mu.Lock()
		if d.err == nil && !d.closed && ctx.Err() != nil {
			d.err = ctx.Err()
		}
		d.dirty = false
		d.cond.Broadcast()
		d.mu.Unlock()
	}()
	for {
		d.mu.Lock()
		for !d.dirty && !d.closed && ctx.Err() == nil {
			d.cond.Wait()
		}
		if d.closed || ctx.Err() != nil {
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()

		err := d.converge(ctx, 0)
		if errors.Is(err, ErrClosed) {
			return
		}
		d.mu.Lock()
		// An event or a socket frame that arrived after converge's last
		// look already fired its notify (the callback fires once per
		// enqueue), which clearing dirty here would swallow: stay dirty
		// and converge again. On the in-memory fabric the pending check is
		// vacuous — a no-progress round means the fabric is empty.
		if err == nil && !d.idleLocked() {
			d.mu.Unlock()
			continue
		}
		fatal := err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		if fatal {
			d.err = err // sticky: the driver refuses further work
		}
		d.dirty = false
		d.cond.Broadcast()
		d.mu.Unlock()
		if fatal {
			return
		}
	}
}

// idleLocked reports that nothing waits to be stepped: no queued event
// and no undrained datagram on the transport (requires mu).
func (d *Driver) idleLocked() bool {
	return len(d.inbox) == 0 && d.n.net.PendingCount() == 0
}

// converge is the one way to a fixpoint, shared by Run, AwaitQuiescence
// and the pump: step until a round makes no progress while the driver is
// idle, then quiesce once. maxSteps > 0 caps the steps; a capped run
// still quiesces (its state is published and sealed as it stands) and
// reports ErrNoFixpoint.
func (d *Driver) converge(ctx context.Context, maxSteps int) error {
	for steps := 1; ; steps++ {
		progress, err := d.step(ctx)
		if err != nil {
			return err
		}
		d.mu.Lock()
		closed, done := d.closed, !progress && d.idleLocked()
		d.mu.Unlock()
		switch {
		case closed:
			return ErrClosed
		case done:
			return d.quiesce()
		case steps == maxSteps:
			if err := d.quiesce(); err != nil {
				return err
			}
			return ErrNoFixpoint
		}
	}
}

// step applies queued mutations, drains any retraction wave to global
// quiescence, and executes one scheduler round, reporting whether
// anything happened (a mutation applied, a withdrawal shipped, an export
// shipped, or a message delivered).
func (d *Driver) step(ctx context.Context) (bool, error) {
	d.runMu.Lock()
	defer d.runMu.Unlock()
	mutated, err := d.applyEvents(d.takeEvents())
	if err != nil {
		return false, err
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if d.n.retractionInFlight() {
		waveRounds, err := d.n.drainRetractions(ctx)
		d.addRounds(waveRounds)
		if err != nil {
			return false, err
		}
		mutated = true
	}
	progress, err := d.n.runRound(ctx, true)
	if err != nil {
		return false, err
	}
	d.addRounds(1)
	return mutated || progress, nil
}

func (d *Driver) addRounds(r int) {
	d.mu.Lock()
	d.epochRounds += r
	d.mu.Unlock()
}

// Step advances the network one round synchronously: queued mutations are
// applied, every node evaluates and ships, every node imports. It returns
// whether the round made progress. Unavailable while the pump runs.
func (d *Driver) Step(ctx context.Context) (bool, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false, ErrClosed
	}
	if d.err != nil {
		err := d.err
		d.mu.Unlock()
		return false, err
	}
	if d.started {
		d.mu.Unlock()
		return false, ErrLive
	}
	d.mu.Unlock()
	return d.step(ctx)
}

// run is Network.Run: converge, bounded by maxRounds steps (0 = 1e6). On
// a capped run it reports exactly maxRounds rounds with ErrNoFixpoint.
func (d *Driver) run(ctx context.Context, maxRounds int) (*Report, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	if d.started {
		d.mu.Unlock()
		return nil, ErrLive
	}
	d.epochStart = time.Now() //provlint:allow detpath report wall-clock epoch, never feeds evaluation
	d.epochRounds = 0
	d.mu.Unlock()
	if maxRounds <= 0 {
		maxRounds = 1000000
	}
	err := d.converge(ctx, maxRounds)
	if err != nil && !errors.Is(err, ErrNoFixpoint) {
		return nil, err
	}
	return d.epochReport(), err
}

// epochReport snapshots the report for the current epoch and opens the
// next one.
func (d *Driver) epochReport() *Report {
	d.mu.Lock()
	start, rounds := d.epochStart, d.epochRounds
	d.epochStart = time.Now() //provlint:allow detpath report wall-clock epoch, never feeds evaluation
	d.epochRounds = 0
	d.mu.Unlock()
	d.runMu.Lock() // the report reads engine counters a pump round may be writing
	defer d.runMu.Unlock()
	return d.n.report(start, rounds)
}

// ReadView returns the latest published table snapshot: an immutable
// copy-on-write view readers use without touching the evaluation lock.
// Before the first convergence it is the empty Seq-0 view.
func (d *Driver) ReadView() *ReadView { return d.view.Load() }

// quiesce is the one quiescence point: it publishes the read snapshot and
// seals and flushes the durable store, so whoever then observes a quiet
// driver sees the converged view and a durable log. Only converge calls
// it.
func (d *Driver) quiesce() error {
	d.runMu.Lock()
	defer d.runMu.Unlock()
	start := time.Now() //provlint:allow detpath metrics quiesce timing, outside the deterministic state
	d.publishViewLocked()
	err := d.n.sealStore()
	d.n.nm.observeQuiesce(d.n, start)
	return err
}

// publishViewLocked publishes the successor of the current read view if
// table content changed since the last publish (requires runMu): the
// previous view patched with the rows the engines reported changed.
// Content-identical republishes keep the existing view and its Seq, so a
// (Seq, body) pair identifies one snapshot.
func (d *Driver) publishViewLocked() {
	gen := d.n.mutGen.Load()
	cur := d.view.Load()
	if cur.Seq != 0 && gen == d.viewGen {
		return
	}
	d.viewSeq++
	d.viewGen = gen
	v := d.n.buildView(cur, d.viewSeq, gen)
	d.view.Store(v)
	d.n.viewPublished(v)
}

// AwaitQuiescence blocks until the network has re-converged: no queued
// mutations, no in-flight messages, and a round that made no progress. It
// returns the report for the epoch that just converged (rounds and
// wall-clock time since the previous quiescence point; transport and
// crypto counters are cumulative). Synchronous drivers converge on the
// caller's goroutine; live drivers wait for the pump.
func (d *Driver) AwaitQuiescence(ctx context.Context) (*Report, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	if !d.started {
		d.mu.Unlock()
		if err := d.converge(ctx, 0); err != nil {
			return nil, err
		}
		return d.epochReport(), nil
	}
	// Live mode: wait for the pump to drain — it published and sealed
	// before it cleared dirty. The context wake-up is installed so
	// cancellation interrupts the wait; a context that can never be
	// cancelled needs none.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			d.mu.Lock()
			d.cond.Broadcast()
			d.mu.Unlock()
		})
		defer stop()
	}
	for d.dirty && d.err == nil && !d.closed && ctx.Err() == nil {
		d.cond.Wait()
	}
	err := d.err
	closed := d.closed
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if closed {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return d.epochReport(), nil
}

// Close stops the pump (if running), closes every subscription channel,
// and marks the driver unusable. It is idempotent and returns the pump's
// sticky error, if any.
func (d *Driver) Close() error {
	d.mu.Lock()
	if d.closed {
		err := d.err
		d.mu.Unlock()
		return err
	}
	d.closed = true
	done := d.pumpDone
	d.cond.Broadcast()
	d.mu.Unlock()
	if done != nil {
		<-done
	}
	d.subMu.Lock()
	for sub := range d.subs { //provlint:allow mapiter independent per-subscription channel closes; order unobservable
		close(sub.ch)
	}
	d.subs = make(map[*Subscription]struct{})
	d.nsubs.Store(0)
	d.subMu.Unlock()
	d.mu.Lock()
	err := d.err
	d.mu.Unlock()
	return err
}

// enqueue queues a mutation and wakes the pump. Every event but
// Resupply and Advance names a hosted node; an Inject or Retract of
// nothing queues nothing.
func (d *Driver) enqueue(ev driverEvent) error {
	if _, ok := d.n.nodes[ev.node]; !ok && ev.kind != evResupply && ev.kind != evAdvance {
		return fmt.Errorf("core: unknown node %q", ev.node)
	}
	if len(ev.tuples) == 0 && (ev.kind == evInject || ev.kind == evRetract) {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.err != nil {
		return d.err
	}
	d.inbox = append(d.inbox, ev)
	d.dirty = true
	d.cond.Broadcast()
	return nil
}

// takeEvents drains the inbox (called under runMu).
func (d *Driver) takeEvents() []driverEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	evs := d.inbox
	d.inbox = nil
	return evs
}

// Inject inserts base tuples at a node at the current logical time. On a
// live driver the pump picks them up immediately; a synchronous driver
// applies them on the next Step/Run/AwaitQuiescence.
func (d *Driver) Inject(node string, tuples ...data.Tuple) error {
	return d.enqueue(driverEvent{kind: evInject, node: node, tuples: tuples})
}

// Retract withdraws base tuples from a node, cascading through everything
// derived from them across the network (the engine's DRed retraction plus
// wire-level withdrawal frames).
func (d *Driver) Retract(node string, tuples ...data.Tuple) error {
	return d.enqueue(driverEvent{kind: evRetract, node: node, tuples: tuples})
}

// SetLink installs (or re-costs) the directed link from→to. A changed
// cost retracts the old link fact first — withdrawing paths priced on it,
// cost increases included — then inserts the new one, and the network
// re-converges incrementally. The fact is shaped like the program's link
// atoms (cost dropped when they have two arguments); any other arity is
// refused.
func (d *Driver) SetLink(from, to string, cost int64) error {
	link, err := d.n.linkFact(from, to, cost)
	if err != nil {
		return err
	}
	return d.enqueue(driverEvent{kind: evSetLink, node: from, to: to, link: link})
}

// CutLink removes the directed link from→to: the link fact is retracted
// and every best path routed over it is withdrawn on every node as the
// retraction cascade propagates.
func (d *Driver) CutLink(from, to string) error {
	return d.enqueue(driverEvent{kind: evCutLink, node: from, to: to})
}

// Resupply queues a soft-state re-announcement: every hosted node
// replays its export log (Network.resupply) between rounds. The driver
// enqueues it automatically when the transport reports a peer restart.
func (d *Driver) Resupply() error {
	return d.enqueue(driverEvent{kind: evResupply})
}

// Advance moves logical time forward by dt seconds, a finite step ≥ 0:
// between rounds every hosted node expires soft state and ages out
// provenance (Network.advance), then the network re-converges, so the
// view, the store log and subscribers see the expiry at a quiescence
// point. Events queued before it apply at the old time.
func (d *Driver) Advance(dt float64) error {
	if !(dt >= 0) || math.IsInf(dt, 1) {
		return fmt.Errorf("core: cannot advance the clock by %v", dt)
	}
	return d.enqueue(driverEvent{kind: evAdvance, dt: dt})
}

// Nudge marks a live pump dirty so it runs a drain round even though no
// local mutation arrived. The termination detector uses it to get
// queued control frames imported: the in-memory fabric never calls
// Notify, so nothing else would announce them to a sleeping pump. A
// synchronous, closed, or failed driver ignores the nudge.
func (d *Driver) Nudge() {
	d.mu.Lock()
	if d.started && !d.closed && d.err == nil {
		d.dirty = true
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// Quiet reports whether the live driver is at a quiescence point: the
// pump has observed a no-progress round, no events are queued, and the
// transport holds no undrained datagrams. It is the local-work half of
// the termination detector's token-passing condition (the other half is
// the transport's in-flight gauge). A synchronous or failed driver is
// never quiet.
func (d *Driver) Quiet() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.started && !d.dirty && !d.closed && d.err == nil && d.idleLocked()
}

// applyEvents applies queued mutations to the engines (called under
// runMu, between rounds). It reports whether anything changed.
func (d *Driver) applyEvents(evs []driverEvent) (bool, error) {
	mutated := false
	for _, ev := range evs {
		nd := d.n.nodes[ev.node] // the enqueuing call checked the name
		if nd != nil {
			d.n.markActive(ev.node)
		}
		switch ev.kind {
		case evInject:
			for _, t := range ev.tuples {
				nd.Engine.InsertFact(t)
			}
		case evRetract:
			// Over-delete now; repair runs when step drains the wave.
			nd.pendingRetract = append(nd.pendingRetract, nd.Engine.BeginRetractFacts(ev.tuples...)...)
		case evSetLink, evCutLink:
			if !d.applyLink(nd, ev) {
				continue
			}
		case evResupply:
			if err := d.n.resupplyAll(); err != nil {
				return true, err
			}
		case evAdvance:
			// Expiry joins the pending retractions; step's drain repairs
			// it with them.
			d.n.advance(ev.dt)
		}
		mutated = true
	}
	return mutated, nil
}

// applyLink performs link churn at the link's owning node: existing link
// facts for the (from,to) pair are retracted (cascading), and SetLink
// inserts the replacement fact. It reports whether anything changed.
func (d *Driver) applyLink(nd *Node, ev driverEvent) bool {
	var stale []data.Tuple
	keep := false
	for _, t := range nd.Engine.Tuples("link") {
		if len(t.Args) < 2 || t.Args[0].Str != ev.node || t.Args[1].Str != ev.to {
			continue
		}
		if ev.kind == evSetLink && t.WithoutAsserter().Equal(ev.link) {
			keep = true // identical link already installed: no-op
			continue
		}
		stale = append(stale, t)
	}
	changed := false
	if len(stale) > 0 {
		// Over-delete now; repair runs when step drains the wave.
		ws := nd.Engine.BeginRetractFacts(stale...)
		nd.pendingRetract = append(nd.pendingRetract, ws...)
		changed = true
	}
	if ev.kind == evSetLink && !keep {
		nd.Engine.InsertFact(ev.link)
		changed = true
	}
	return changed
}

// --- subscriptions ---

// Update is one table change streamed to a subscription.
type Update struct {
	// Node is where the change happened.
	Node string
	// Tuple is the changed fact.
	Tuple data.Tuple
	// Added is true when the tuple entered the table, false when it was
	// withdrawn (retraction, keyed replacement, or expiry).
	Added bool
}

// Subscription streams table updates for one (node, predicate) filter.
type Subscription struct {
	d       *Driver
	node    string
	pred    string
	ch      chan Update
	dropped atomic.Int64
	once    sync.Once
}

// Updates is the subscription's channel. It closes when the subscription
// or the driver closes.
func (s *Subscription) Updates() <-chan Update { return s.ch }

// Dropped reports updates discarded because the channel buffer was full:
// the engines never block on slow consumers.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Close unsubscribes and closes the channel.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.d.subMu.Lock()
		if _, ok := s.d.subs[s]; ok {
			delete(s.d.subs, s)
			s.d.nsubs.Add(-1)
			close(s.ch)
		}
		s.d.subMu.Unlock()
	})
}

// subscriptionBuffer is the per-subscription channel capacity. Full
// buffers drop (counted): a slow consumer must never stall the network.
const subscriptionBuffer = 256

// maxSubscriptions caps a driver's live subscriptions. An Update is 80
// bytes (node string, tuple, flag), so each full subscription buffers
// subscriptionBuffer × 80 B = 20 KiB, and the cap bounds all of them at
// 256 × 20 KiB = 5 MiB, besides the tuples they point to; it also
// bounds the fan-out every table change pays in publish.
const maxSubscriptions = 256

// Subscribe streams table updates for pred at node ("" matches every
// predicate; node "" matches every node). Updates for one (node, pred)
// arrive in table order; a full buffer drops updates rather than blocking
// the scheduler (see Subscription.Dropped). While maxSubscriptions are
// open it fails with ErrTooManySubscriptions; closing one frees a slot.
func (d *Driver) Subscribe(node, pred string) (*Subscription, error) {
	if node != "" {
		if _, ok := d.n.nodes[node]; !ok {
			return nil, fmt.Errorf("core: unknown node %q", node)
		}
	}
	sub := &Subscription{d: d, node: node, pred: pred, ch: make(chan Update, subscriptionBuffer)}
	// The closed check and the registration share the subMu critical
	// section: Close closes every registered channel under subMu, so a
	// Subscribe racing Close either loses (ErrClosed) or registers in
	// time for Close to close its channel — never a leaked-open channel.
	d.subMu.Lock()
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		d.subMu.Unlock()
		return nil, ErrClosed
	}
	if len(d.subs) >= maxSubscriptions {
		d.subMu.Unlock()
		return nil, ErrTooManySubscriptions
	}
	d.subs[sub] = struct{}{}
	d.nsubs.Add(1)
	d.subMu.Unlock()
	return sub, nil
}

// Subscribers reports the number of live subscriptions — the leak
// check for transports that tie a Subscription to a connection (the
// query API's SSE endpoint).
func (d *Driver) Subscribers() int { return int(d.nsubs.Load()) }

// publish fans a table change out to matching subscriptions. Called from
// engine update observers on scheduler goroutines; it never blocks.
func (d *Driver) publish(node string, t data.Tuple, added bool) {
	if d.nsubs.Load() == 0 {
		return
	}
	u := Update{Node: node, Tuple: t, Added: added}
	d.subMu.RLock()
	for sub := range d.subs { //provlint:allow mapiter independent per-subscription sends; order unobservable
		if sub.node != "" && sub.node != node {
			continue
		}
		if sub.pred != "" && sub.pred != t.Pred {
			continue
		}
		select {
		case sub.ch <- u:
		default:
			sub.dropped.Add(1)
		}
	}
	d.subMu.RUnlock()
}
