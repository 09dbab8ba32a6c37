package core

// Distributed termination detection: the credit/clean-wave protocol that
// ends multi-process deployments.
//
// The problem: a process cannot conclude "the distributed fixpoint is
// reached" from its own silence. Its links may be quiet while a frame is
// still in flight to it, or while a remote process is mid-evaluation — an
// idle heuristic (no messages for a wall-clock window) declares exactly
// such false fixpoints under delay or partition (see
// TestIdleHeuristicFalseFixpoint).
//
// The protocol: every node keeps a cumulative activity counter,
// incremented on every export shipped, delivery applied, and mutation
// event. A token circulates the sorted ring of ALL nodes (hosted and
// remote — every process derives the same ring from the shared
// program). Each node holds the token until it is locally quiescent —
// the driver pump is idle with nothing queued or pending, and the
// transport reports zero in-flight (unacked) frames — then adds its
// counter to the token's running sum and forwards it to its ring
// successor. When the token returns to the ring root (the first node in
// sort order), the wave is complete.
//
// The root declares termination when two consecutive completed waves
// return the same activity sum. Equal sums mean no node did any work
// between its two stamps; the stamp condition (quiescent, zero
// in-flight) then excludes any frame being in flight at completion: a
// frame acked before the sender's first stamp must have been drained —
// and counted — by the receiver before its second stamp, and a frame
// sent after the first stamp bumped the sender's counter between
// stamps. Either way the sums differ. This is the counter variant of
// the classic dirty-bit token ring; cumulative counters are what make
// token loss safe. Nothing is ever reset, so a token dropped, delayed,
// or duplicated by a lossy link (or internal/faultnet) costs a wave
// restart — the root times out and launches the next wave — never a
// false fixpoint. TestTerminationNoFalseFixpoint drives exactly those
// schedules.
//
// On declaration the root broadcasts a terminate frame to every other
// node and flushes its transport so the broadcast outlives the process.
// All control traffic rides token and terminate frames (docs/WIRE.md)
// sealed alone with the says signer under every configuration —
// session keys may not exist yet on a restarted link, signatures always
// verify.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// TermConfig configures the termination detector.
type TermConfig struct {
	// WaveTimeout bounds how long the root waits for a launched wave to
	// return before restarting it (token lost or a node stalled).
	// Default 2s.
	WaveTimeout time.Duration
	// PollEvery is the detector's quiescence polling interval.
	// Default 2ms.
	PollEvery time.Duration
}

// TermDetector runs the clean-wave termination protocol for the nodes
// this process hosts. Create one per process with
// Network.StartTermination; Done closes when some root declares the
// distributed fixpoint.
type TermDetector struct {
	n    *Network
	cfg  TermConfig
	ring []string // all nodes, sorted; ring[0] is the root

	// acts holds the cumulative activity counter per hosted node,
	// bumped by Network.markActive from scheduler goroutines.
	acts map[string]*atomic.Uint64

	mu sync.Mutex
	// tokens holds at most one received token per hosted node, awaiting
	// quiescence to forward. Keyed by the node the token arrived at.
	tokens map[string]*frame
	// lastWave tracks the highest wave each hosted node forwarded;
	// stale and duplicate tokens are dropped (safe: counters are
	// cumulative, a dropped token destroys no state).
	lastWave map[string]uint64
	// Root state (only used when this process hosts ring[0]).
	rootWave  uint64    // wave number of the current attempt
	launched  bool      // a wave is in flight
	waveStart time.Time // when it launched, for the timeout
	lastTotal uint64    // previous completed wave's activity sum
	haveTotal bool      // lastTotal is valid
	sendErr   error     // first control-frame send failure (sticky)

	// scratch is what the detector goroutine seals its tokens in; the
	// terminate broadcast, on a goroutine of its own, seals in another.
	scratch roundScratch

	waves      atomic.Uint64 // completed waves (root only)
	terminated atomic.Bool
	done       chan struct{}
	doneOnce   sync.Once
	stopped    chan struct{}
}

// StartTermination installs and starts a termination detector over the
// network's node ring. The driver must be live (Start) for quiescence
// to be observable; the detector's goroutine stops with ctx. The
// returned detector's Done channel closes when the distributed fixpoint
// is declared — by this process's root or by a remote root's terminate
// broadcast.
func (n *Network) StartTermination(ctx context.Context, cfg TermConfig) *TermDetector {
	if cfg.WaveTimeout <= 0 {
		cfg.WaveTimeout = 2 * time.Second
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 2 * time.Millisecond
	}
	td := &TermDetector{
		n:        n,
		cfg:      cfg,
		ring:     n.allNodes,
		acts:     make(map[string]*atomic.Uint64, len(n.order)),
		tokens:   make(map[string]*frame),
		lastWave: make(map[string]uint64),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	for _, name := range n.order {
		td.acts[name] = &atomic.Uint64{}
	}
	n.term.Store(td)
	m := n.Metrics()
	m.CounterFunc("provnet_term_waves_total", "Termination-detection waves completed at the ring root.", func() int64 { return int64(td.waves.Load()) })
	m.GaugeFunc("provnet_term_terminated", "1 after the distributed fixpoint was declared.", func() int64 {
		if td.terminated.Load() {
			return 1
		}
		return 0
	})
	go td.loop(ctx)
	return td
}

// Done closes when termination is declared.
func (td *TermDetector) Done() <-chan struct{} { return td.done }

// Waves reports completed detection waves (nonzero only at the process
// hosting the ring root).
func (td *TermDetector) Waves() uint64 { return td.waves.Load() }

// Terminated reports whether the fixpoint has been declared.
func (td *TermDetector) Terminated() bool { return td.terminated.Load() }

// Err returns the first control-frame send failure, if any.
func (td *TermDetector) Err() error {
	td.mu.Lock()
	defer td.mu.Unlock()
	return td.sendErr
}

// markDirty bumps a hosted node's cumulative activity counter. Called
// from Network.markActive on scheduler goroutines; must stay
// allocation-free.
func (td *TermDetector) markDirty(node string) {
	if c, ok := td.acts[node]; ok {
		c.Add(1)
	}
}

// root reports whether this process hosts the ring root.
func (td *TermDetector) root() (string, bool) {
	name := td.ring[0]
	_, hosted := td.acts[name]
	return name, hosted
}

// succ returns the ring successor of node.
func (td *TermDetector) succ(node string) string {
	for i, name := range td.ring {
		if name == node {
			return td.ring[(i+1)%len(td.ring)]
		}
	}
	return td.ring[0]
}

// quiescent reports local quiescence: the driver pump is idle with
// nothing queued or pending, and the transport has no unacknowledged
// outbound frames. This is the token-holding condition.
func (td *TermDetector) quiescent() bool {
	// Check order matters: a frame moves in-flight → receiver backlog
	// monotonically (limbo, retransmit window, then inbox), so sampling
	// InFlight first and PendingCount second can never miss a frame mid
	// hand-off. The reverse order could: a frame released between the
	// two samples would be counted by neither gauge, and a stamp over it
	// would be a false fixpoint waiting to happen.
	if td.n.net.InFlight() > 0 {
		return false
	}
	if td.n.net.PendingCount() > 0 {
		// The queued datagrams may be control frames nobody announces
		// (the in-memory fabric never calls Notify): have the pump drain
		// them, then re-check on the next poll.
		td.n.Driver().Nudge()
		return false
	}
	return td.n.Driver().Quiet()
}

// handleControl routes a verified token or terminate frame received at
// hosted node `at`. Called from import-phase goroutines.
func (td *TermDetector) handleControl(at string, cf *frame) {
	if cf.kind == kindTerminate {
		td.declareLocal()
		return
	}
	td.mu.Lock()
	defer td.mu.Unlock()
	if root, hosted := td.root(); hosted && at == root {
		// A token returning to the root completes (or is stale for) a
		// wave; it is never re-forwarded.
		td.completeWaveLocked(cf)
		return
	}
	if cf.wave <= td.lastWave[at] {
		return // stale or duplicate: counters are cumulative, drop is safe
	}
	td.tokens[at] = cf
}

// completeWaveLocked processes a token arriving back at the root.
func (td *TermDetector) completeWaveLocked(cf *frame) {
	if !td.launched || cf.wave != td.rootWave {
		return // a wave we already timed out and restarted
	}
	td.launched = false
	td.waves.Add(1)
	total := cf.acts
	same := td.haveTotal && total == td.lastTotal
	td.lastTotal, td.haveTotal = total, true
	if same {
		// Two consecutive completed waves with equal activity sums: no
		// node worked between its stamps, no frame was in flight. The
		// wave number is captured here, under mu — the detector loop
		// keeps advancing rootWave while the broadcast goroutine runs.
		go td.broadcastTerminate(td.rootWave)
	}
}

// loop is the detector goroutine: it forwards held tokens and launches
// root waves whenever the process is locally quiescent, and restarts
// waves the root has given up on.
func (td *TermDetector) loop(ctx context.Context) {
	defer close(td.stopped)
	tick := time.NewTicker(td.cfg.PollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-td.done:
			return
		case <-tick.C:
		}
		td.step()
	}
}

// step runs one detector iteration.
func (td *TermDetector) step() {
	now := time.Now() //provlint:allow detpath wave timeout clock; control plane only, never feeds evaluation
	td.mu.Lock()
	root, hostsRoot := td.root()
	// Root timeout: the token is lost or a node is stalled; restart the
	// wave. Cumulative counters make the abandoned token harmless.
	if hostsRoot && td.launched && now.Sub(td.waveStart) > td.cfg.WaveTimeout {
		td.launched = false
	}
	td.mu.Unlock()

	if !td.quiescent() {
		return
	}

	// Forward every held token: stamp the hosted node's counter into
	// the running sum and pass it on.
	td.mu.Lock()
	var sends []*frame
	for _, at := range td.n.order { // deterministic order; n.order is fixed
		cf, ok := td.tokens[at]
		if !ok {
			continue
		}
		delete(td.tokens, at)
		td.lastWave[at] = cf.wave
		sends = append(sends, &frame{kind: kindToken, from: at, wave: cf.wave, acts: cf.acts + td.acts[at].Load()})
	}
	// Root launch: no wave outstanding, start the next one with the
	// root's own stamp.
	if hostsRoot && !td.launched && !td.terminated.Load() {
		td.rootWave++
		td.launched = true
		td.waveStart = now
		sends = append(sends, &frame{kind: kindToken, from: root, wave: td.rootWave, acts: td.acts[root].Load()})
	}
	td.mu.Unlock()

	for _, cf := range sends {
		td.sendControl(&td.scratch, cf, td.succ(cf.from))
	}
}

// sendControl seals one control frame in s and ships it.
func (td *TermDetector) sendControl(s *roundScratch, cf *frame, to string) {
	payload, err := cf.seal(s, td.n.control, to)
	if err == nil {
		err = td.n.net.Send(cf.from, to, payload)
	}
	if err != nil {
		td.mu.Lock()
		if td.sendErr == nil {
			td.sendErr = err
		}
		td.mu.Unlock()
	}
}

// broadcastTerminate ships the terminate frame from the root to every
// other node, flushes the transport so the frames outlive this process,
// and closes Done.
func (td *TermDetector) broadcastTerminate(wave uint64) {
	td.terminated.Store(true)
	root := td.ring[0]
	var s roundScratch
	for _, name := range td.ring[1:] {
		if _, hosted := td.acts[name]; hosted {
			continue // co-hosted nodes learn via declareLocal below
		}
		td.sendControl(&s, &frame{kind: kindTerminate, from: root, wave: wave}, name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = td.n.net.Flush(ctx)
	cancel()
	td.declareLocal()
}

// declareLocal marks termination for this process.
func (td *TermDetector) declareLocal() {
	td.terminated.Store(true)
	td.doneOnce.Do(func() { close(td.done) })
}
