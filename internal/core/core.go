// Package core assembles the full provenance-aware secure network: it
// instantiates one query engine per hosted node over a pluggable
// Transport (the in-memory netsim fabric by default, or nettcp's TCP
// backend for multi-process deployments), wires in the configured says
// implementation and provenance mode, drives the distributed
// computation to a fixpoint — one-shot via Run, or resumably via the
// lifecycle Driver — and exposes the provenance query interface. The
// three configurations evaluated by the paper — NDlog, SeNDlog,
// SeNDlogProv (§6) — are presets over this package; the wire formats
// the scheduler seals are specified byte-for-byte in docs/WIRE.md, and
// docs/ARCHITECTURE.md maps the execution model.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"provnet/internal/auth"
	"provnet/internal/data"
	"provnet/internal/datalog"
	"provnet/internal/engine"
	"provnet/internal/netsim"
	"provnet/internal/obs"
	"provnet/internal/provenance"
	"provnet/internal/semiring"
	"provnet/internal/topo"
)

// Variant names the paper's three evaluated configurations.
type Variant uint8

// The §6 experiment variants.
const (
	// VariantNDlog: no authentication, no provenance.
	VariantNDlog Variant = iota
	// VariantSeNDlog: RSA-authenticated communication, no provenance.
	VariantSeNDlog
	// VariantSeNDlogProv: RSA authentication plus condensed (BDD)
	// provenance shipped with every tuple.
	VariantSeNDlogProv
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case VariantNDlog:
		return "NDlog"
	case VariantSeNDlog:
		return "SeNDlog"
	case VariantSeNDlogProv:
		return "SeNDlogProv"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// Config assembles a network.
type Config struct {
	// Source is the NDlog/SeNDlog program text.
	Source string
	// Graph optionally supplies the topology; its links are inserted as
	// link facts shaped like the program's link atoms: link(@from, to)
	// when they have two arguments, link(@from, to, cost) when they have
	// three or no rule reads link. NewNetwork refuses a Graph for any
	// other arity.
	Graph *topo.Graph
	// ExtraNodes registers nodes that appear in no link or fact.
	ExtraNodes []string

	// Auth selects the says implementation for inter-node messages.
	// auth.SchemeSession is RSA says over the session-security stack: one
	// RSA handshake per (src,dst) link transports a per-link session key,
	// and every subsequent frame is sealed with a cheap HMAC under that
	// key instead of the sender's per-round signature. A receiver opens
	// data with the sealer it is configured with and no other.
	Auth auth.Scheme
	// KeyBits sizes RSA keys (default auth.DefaultRSABits).
	KeyBits int
	// Prov selects the provenance mode.
	Prov provenance.Mode
	// Offline enables the offline provenance store with the given
	// maximum age (<0 keeps forever); nil disables it. ModeDistributed only.
	Offline *float64
	// SampleEvery records only every k-th derivation into stores (§5;
	// ModeDistributed only).
	SampleEvery int

	// Seed drives deterministic key generation.
	Seed int64

	// Sequential disables the parallel round scheduler (a pool of
	// GOMAXPROCS workers per phase) and runs nodes one after another
	// within each round, as the seed implementation did. Results (tables,
	// rounds, transport stats) are identical either way; it is the
	// reference schedule the pool is pinned against.
	Sequential bool
	// Unbatched ships one sealed data frame per exported tuple, as the
	// seed implementation did, instead of one per (src,dst) pair per
	// round, and seals every frame alone: one signature per tuple, the
	// paper's baseline, where the default signs a node's whole round
	// once. A/B knob for the Figure 4 bandwidth experiments.
	Unbatched bool
	// RekeyRounds rotates session keys — with a fresh handshake per live
	// link — every N scheduler rounds (0 = one key per link for the whole
	// run). NewNetwork refuses it with any other Auth than
	// auth.SchemeSession.
	RekeyRounds int

	// Transport overrides the message substrate (nil = a fresh in-memory
	// netsim.Network). Supplying an internal/nettcp transport — together
	// with LocalNodes naming the node(s) this process hosts — turns the
	// single-process simulation into one member of a multi-process
	// deployment: exports to remote nodes cross real sockets while the
	// scheduler, wire formats, and security stack run unchanged.
	Transport Transport
	// LocalNodes restricts which nodes this process instantiates engines
	// for (nil = all, the single-process default). Remote nodes still
	// contribute their principals (keys are derived deterministically
	// from Seed, so every process agrees on the directory), but their
	// base facts are skipped and traffic to them is routed by the
	// Transport. Naming them also turns on the export log that
	// re-supplies a restarted peer (see Network.resupply).
	LocalNodes []string

	// Store, when set, receives every table change at every hosted node
	// as an ordered event stream (insert/retract/expire/annotation), and
	// is sealed and flushed at quiescence points — the durability seam.
	// nil keeps the seed behavior: state lives only in the engines'
	// in-memory maps. internal/storelog supplies the durable append-only
	// implementation; the network closes the Store on Network.Close.
	Store Store

	// Metrics, when set, receives runtime observability: scheduler,
	// engine, transport, and store counters/histograms plus the
	// round/wave flight recorder (see internal/obs and
	// docs/OBSERVABILITY.md). nil disables instrumentation entirely —
	// the hot path pays one pointer check and allocates nothing, and
	// evaluation order and wire bytes are identical either way.
	// internal/queryapi serves a configured registry at /metrics and
	// /v1/debug/rounds.
	Metrics *obs.Metrics
}

// Node bundles one simulated node's components.
type Node struct {
	Name    string
	Engine  *engine.Engine
	Tracker *provenance.Tracker
	Store   *provenance.Store // derivation pointers; nil outside ModeDistributed

	// pendingRetract holds withdrawals this node owes other nodes after a
	// retraction cascade (link churn). They ship ahead of the node's data
	// frames in the next export phase. Only this node's scheduler task
	// touches it (mutations are applied between rounds), so no lock.
	pendingRetract []engine.Withdrawal

	// exports is the soft-state log (Network.resupply only): the current
	// exports per destination — each tuple with its annotation, encoded
	// afresh into whatever frame replays it — replayed when a peer process
	// restarts. Keyed dest → tuple key; owned by this node's scheduler task
	// like pendingRetract, so no lock.
	exports map[string]map[string]item

	// view is this node's slice of the latest published ReadView (nil
	// before the first publish) and dirt what the engine reported since,
	// per predicate, sorted by it; touched says dirt is not empty. Changes are tracked
	// only once there is a view to patch, so a batch run that publishes
	// once pays nothing. Written by onEngineUpdate on this node's
	// scheduler task and by the driver at quiescence, so no lock (see
	// buildView).
	view    *NodeView
	dirt    []tableDirt
	touched bool
}

// roundScratch is what a node task builds frames in and decodes them
// into. Each pool worker owns one and hands it to every node task it
// runs; the sequential schedule, a one-worker pool and resupplyAll use
// the first, and the termination detector seals its control frames in
// its own. Outbound, it holds the grouping of withdrawals and exports by
// destination, the frames made from them, the condensed provenance
// tables of the task's data frames back to back (table; anns gathers one
// frame's annotations for it), and what sealFrames works in: the frames'
// signed bytes back to back, where each frame's bytes end, the envelopes
// handed to the sealer and the tag buffer lent to it. Inbound, it holds
// the frames decoded from the drained inbox, those delivered, the
// withdrawals among them and the frame decoder, a lender whose arena
// holds every decoded tuple's values. Nothing in it outlives the node
// task that fills it — a sent frame is bytes in the transport, a
// delivered one rows in the engine, which copies what it keeps — so
// reset starts it over when the task ends.
type roundScratch struct {
	retracts, exports destGroups
	frames            []outFrame
	table             []byte
	anns              []engine.Annotation
	signed            []byte
	ends              []int
	batch             []auth.Envelope
	tags              []byte
	out, in           framePool
	delivered         []*frame
	inbound           []engine.InboundRetraction
	dec               *data.Decoder
}

// poisonWire makes reset overwrite the task's table arena, signed bytes,
// tag buffer, inbound withdrawals and decoded values, decodeProv the
// manager's decode scratch once it has copied a frame's annotations out,
// and the import phase the drained inbox, so a table, node, datagram,
// withdrawal or tuple kept past its task reads wrong instead of stale.
// Tests set it.
var poisonWire atomic.Bool

// wirePoison is what poisonWire leaves in the import phase's scratch,
// and decodedPoison in the values it decoded.
const wirePoison = "\x00scratch poison"

var decodedPoison = data.Str(wirePoison)

// reset ends a node task: nothing it built or decoded may keep the
// task's tuples, annotations, tables or tags alive. A one-off oversized
// round's signed bytes and decoder are not worth hoarding.
func (s *roundScratch) reset() {
	if poisonWire.Load() {
		for _, b := range [][]byte{s.table, s.signed, s.tags} {
			for i := range b {
				b[i] = 0xff
			}
		}
		for i := range s.inbound {
			s.inbound[i] = engine.InboundRetraction{From: wirePoison, Tuple: data.NewTuple(wirePoison)}
		}
	} else {
		clear(s.inbound)
	}
	s.retracts.reset()
	s.exports.reset()
	clear(s.frames)
	clear(s.batch)
	clear(s.delivered)
	s.out.done()
	s.in.done()
	s.frames, s.table, s.signed, s.ends, s.batch, s.tags = s.frames[:0], s.table[:0], s.signed[:0], s.ends[:0], s.batch[:0], s.tags[:0]
	s.delivered, s.inbound = s.delivered[:0], s.inbound[:0]
	if cap(s.signed) > 1<<20 {
		s.signed = nil
	}
	switch {
	case s.dec == nil:
	case s.dec.Oversized():
		s.dec = nil
	case poisonWire.Load():
		s.dec.Reclaim(&decodedPoison)
	default:
		s.dec.Reclaim(nil)
	}
}

// destGroups groups outbound items by destination, the destinations in
// the order of their first item.
type destGroups struct {
	idx   map[string]int
	dests []string
	items [][]item
}

// reset empties the groups, keeping their arrays.
func (g *destGroups) reset() {
	clear(g.idx)
	for k := range g.dests {
		clear(g.items[k])
		g.items[k] = g.items[k][:0]
	}
	g.dests = g.dests[:0]
}

// add appends it to dest's group.
func (g *destGroups) add(dest string, it item) {
	k, ok := g.idx[dest]
	if !ok {
		if g.idx == nil {
			g.idx = make(map[string]int)
		}
		k = len(g.dests)
		g.idx[dest] = k
		g.dests = append(g.dests, dest)
		if k == len(g.items) {
			g.items = append(g.items, nil)
		}
	}
	g.items[k] = append(g.items[k], it)
}

// framePool hands out the frames of one task, reused task after task.
type framePool struct {
	fs []*frame
	n  int
}

// get returns the task's next frame; the caller overwrites it.
func (p *framePool) get() *frame {
	if p.n == len(p.fs) {
		p.fs = append(p.fs, new(frame))
	}
	p.n++
	return p.fs[p.n-1]
}

// done ends the task: the frames handed out drop what they reference
// (tuples, datagram bytes), keeping their item arrays.
func (p *framePool) done() {
	for _, f := range p.fs[:p.n] {
		clear(f.items)
		*f = frame{items: f.items[:0]}
	}
	p.n = 0
}

// Network is a fully assembled provenance-aware secure network.
type Network struct {
	cfg Config
	// prog is the localized program, compiled once: every node's engine
	// shares it.
	prog *engine.Program
	// linkArity is the arity of the program's link atoms (3 when no rule
	// reads link); linkFact shapes topology links to it.
	linkArity int
	// resupply is soft-state re-announcement, on iff Config.LocalNodes
	// is set: such a network is one process of a deployment whose peers
	// can restart. Every hosted node keeps a log of its current exports
	// per destination, and when the transport reports a peer process
	// restarting (SetRestartHandler), the driver replays the log so the
	// restarted process — which lost its in-memory tables — is
	// re-supplied without waiting for churn. Engines are idempotent (set
	// semantics, per-sender support), so replayed exports are harmless to
	// peers that never crashed. A single-process network keeps it off:
	// the log costs an allocation per export, which the hot path must not
	// pay.
	resupply bool
	net      Transport
	nodes    map[string]*Node
	order    []string
	idx      map[string]int // name → position in order
	dir      *auth.Directory
	// drv is the lazily created lifecycle driver; Run is a synchronous
	// wrapper over it.
	drvOnce sync.Once
	drv     *Driver
	// sealer seals and opens data, retract and handshake frames: control,
	// or the session sealer under auth.SchemeSession.
	sealer auth.Sealer
	// control is the says adapter over the scheme's signer. Termination
	// frames are sealed with it, each alone, under every configuration: a
	// token must verify before any session exists, and across restarts
	// that lose them.
	control auth.Sealer
	// session is non-nil iff Auth is auth.SchemeSession.
	session *auth.SessionSealer
	// store is Config.Store (nil = in-memory only). storeErr latches the
	// first append failure so one bad write doesn't spam every event.
	store    Store
	storeErr atomic.Pointer[error]
	// mutGen counts table mutations across all hosted engines; the driver
	// compares it across view builds so content-identical republishes
	// keep their snapshot Seq.
	mutGen atomic.Uint64
	// nm holds the observability instruments (nil = disabled; see
	// metrics.go).
	nm *netMetrics
	// clock is the logical time in seconds, as float64 bits: advance
	// writes it under the driver's run lock, Clock reads it anywhere.
	clock atomic.Uint64
	// Signature and rejection counters are atomic: the parallel scheduler
	// signs and verifies from many goroutines at once.
	signed  atomic.Int64
	checked atomic.Int64
	hsBytes atomic.Int64 // Report.HandshakeBytes
	// rejectedSig counts frames dropped by signature or annotation
	// failure.
	rejectedSig atomic.Int64
	// allNodes is the sorted full node list — hosted and remote — shared
	// by every process of a deployment (all derive it from the same
	// program and topology). The termination detector's token ring walks
	// it in this order.
	allNodes []string
	// pool is forEachNode's scratch, reused call after call: one round
	// scratch per worker, one progress flag and one error per node in
	// n.order, the next node and the next scratch to claim, and whether a
	// node failed. Rounds run one at a time, so calls never overlap.
	pool struct {
		scratch []roundScratch
		prog    []bool
		errs    []error
		next    atomic.Int64
		slot    atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
	}
	// syms is the read-only table received frames decode their strings
	// through (frameSymbols).
	syms *data.Symbols
	// term is the active termination detector, nil unless StartTermination
	// ran. The hot path pays one atomic load per activity mark when a
	// detector is installed, and a nil check otherwise.
	term atomic.Pointer[TermDetector]
}

// ErrNoFixpoint is returned when Run exceeds its round budget.
var ErrNoFixpoint = errors.New("core: no distributed fixpoint within round budget")

// NewNetwork builds and initializes a network: parses and localizes the
// program, provisions principals and keys, instantiates engines and
// provenance trackers, and inserts the base facts (program facts plus
// topology links).
func NewNetwork(cfg Config) (*Network, error) {
	switch {
	case cfg.Offline != nil && cfg.Prov != provenance.ModeDistributed:
		return nil, fmt.Errorf("core: Offline requires ModeDistributed provenance, not %v", cfg.Prov)
	case cfg.SampleEvery > 1 && cfg.Prov != provenance.ModeDistributed:
		return nil, fmt.Errorf("core: SampleEvery requires ModeDistributed provenance, not %v", cfg.Prov)
	case cfg.RekeyRounds > 0 && cfg.Auth != auth.SchemeSession:
		return nil, fmt.Errorf("core: RekeyRounds requires SchemeSession auth, not %v", cfg.Auth)
	}
	prog, err := datalog.Parse(cfg.Source)
	if err != nil {
		return nil, err
	}
	if err := datalog.Validate(prog); err != nil {
		return nil, err
	}
	localized, err := datalog.Localize(prog)
	if err != nil {
		return nil, err
	}
	compiled, err := engine.Compile(localized)
	if err != nil {
		return nil, err
	}

	// Says-semantics is on when the program uses SeNDlog contexts.
	saysSemantics := false
	for _, r := range localized.Rules {
		if r.IsSeNDlog() {
			saysSemantics = true
			break
		}
	}

	transport := cfg.Transport
	if transport == nil {
		transport = netsim.New()
	}
	n := &Network{
		cfg:       cfg,
		prog:      compiled,
		linkArity: linkArity(prog),
		resupply:  len(cfg.LocalNodes) > 0,
		net:       transport,
		store:     cfg.Store,
		nodes:     make(map[string]*Node),
		idx:       make(map[string]int),
		dir:       auth.NewDeterministicDirectory(cfg.Seed),
	}
	bits := cfg.KeyBits
	if bits == 0 {
		bits = auth.DefaultRSABits
	}
	n.dir.SetKeyBits(bits)

	var signer auth.Signer
	switch cfg.Auth {
	case auth.SchemeNone:
		signer = auth.NoneSigner{}
	case auth.SchemeHMAC:
		signer = auth.NewHMACSigner([]byte(fmt.Sprintf("provnet-master-%d", cfg.Seed)))
	case auth.SchemeRSA, auth.SchemeSession:
		signer = auth.NewRSASigner(n.dir)
	default:
		return nil, fmt.Errorf("core: unknown auth scheme %v", cfg.Auth)
	}
	n.control = auth.SignerSealer{S: signer}
	n.sealer = n.control
	if cfg.Auth == auth.SchemeSession {
		n.session = auth.NewSessionSealer(n.dir, cfg.RekeyRounds)
		n.sealer = n.session
	}

	// Collect the node set: topology nodes, fact placements, extras.
	var names []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	if cfg.Graph != nil {
		for _, nm := range cfg.Graph.Nodes {
			add(nm)
		}
	}
	for _, f := range localized.Facts {
		add(f.Node)
	}
	for _, nm := range cfg.ExtraNodes {
		add(nm)
	}
	if len(names) == 0 {
		return nil, errors.New("core: no nodes (no topology, facts, or extra nodes)")
	}
	n.allNodes = append([]string(nil), names...)
	sort.Strings(n.allNodes)
	n.syms = frameSymbols(localized, n.allNodes)

	// Only the RSA says operator and the session handshake ever read a
	// key pair; the other schemes skip a key generation per principal.
	// Under RSA the keys come off the deterministic stream in the same
	// order as ever.
	if cfg.Auth == auth.SchemeRSA || n.session != nil {
		for _, name := range names {
			if err := n.dir.AddPrincipal(name, 1); err != nil {
				return nil, err
			}
		}
	}

	// Multi-process deployments instantiate engines only for the nodes
	// this process hosts; every process still derives the full principal
	// directory above, so cross-process signatures and handshakes verify.
	var local map[string]bool
	if len(cfg.LocalNodes) > 0 {
		local = make(map[string]bool, len(cfg.LocalNodes))
		for _, name := range cfg.LocalNodes {
			if !seen[name] {
				return nil, fmt.Errorf("core: local node %q not in the network (no link, fact, or extra names it)", name)
			}
			local[name] = true
		}
	}
	hosted := func(name string) bool { return local == nil || local[name] }

	for _, name := range names {
		if !hosted(name) {
			continue
		}
		if err := n.addNode(name, saysSemantics); err != nil {
			return nil, err
		}
	}

	// Base facts: program facts, then topology links. Facts placed at
	// remote nodes are that process's responsibility.
	for _, f := range localized.Facts {
		node, ok := n.nodes[f.Node]
		if !ok {
			if !hosted(f.Node) {
				continue
			}
			return nil, fmt.Errorf("core: fact %s placed at unknown node %q", f.Tuple, f.Node)
		}
		node.Engine.InsertFact(f.Tuple)
	}
	if cfg.Graph != nil {
		for _, l := range cfg.Graph.Links {
			node, ok := n.nodes[l.From]
			if !ok {
				continue // a remote process owns this link fact
			}
			tu, err := n.linkFact(l.From, l.To, l.Cost)
			if err != nil {
				return nil, err
			}
			node.Engine.InsertFact(tu)
		}
	}
	if cfg.Metrics != nil {
		n.nm = newNetMetrics(cfg.Metrics, n)
	}
	return n, nil
}

// linkArity is the arity of the program's link body atoms, or 3 when no
// rule reads link. Validate has checked that every use agrees.
func linkArity(prog *datalog.Program) int {
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.Kind == datalog.LitAtom && l.Atom.Pred == "link" {
				return len(l.Atom.Args)
			}
		}
	}
	return 3
}

// linkFact is the fact for the topology link from→to, shaped like the
// program's link atoms: link(@from, to) or link(@from, to, cost). Any
// other arity is refused, since no rule could match the fact.
func (n *Network) linkFact(from, to string, cost int64) (data.Tuple, error) {
	switch n.linkArity {
	case 2:
		return data.NewTuple("link", data.Str(from), data.Str(to)), nil
	case 3:
		return data.NewTuple("link", data.Str(from), data.Str(to), data.Int(cost)), nil
	}
	return data.Tuple{}, fmt.Errorf("core: the program's link atoms have %d arguments; a topology link fills 2 (from, to) or 3 (from, to, cost)", n.linkArity)
}

func (n *Network) addNode(name string, saysSemantics bool) error {
	tcfg := provenance.TrackerConfig{
		Mode:        n.cfg.Prov,
		Self:        name,
		Clock:       n.Clock,
		SampleEvery: n.cfg.SampleEvery,
	}
	if n.cfg.Prov == provenance.ModeDistributed {
		tcfg.Store = provenance.NewStore(name)
		if n.cfg.Offline != nil {
			tcfg.Store.EnableOffline(*n.cfg.Offline)
		}
	}
	tracker := provenance.NewTracker(tcfg)
	var hook engine.ProvHook // nil: the engine's NoProv fast path
	if n.cfg.Prov != provenance.ModeNone {
		hook = tracker
	}
	eng := engine.New(engine.Config{
		Self:          name,
		Authenticated: saysSemantics,
		Hook:          hook,
		OnUpdate: func(t data.Tuple, kind engine.UpdateKind) {
			n.onEngineUpdate(name, t, kind)
		},
	})
	if err := eng.Load(n.prog); err != nil {
		return err
	}
	n.nodes[name] = &Node{Name: name, Engine: eng, Tracker: tracker, Store: tcfg.Store}
	n.idx[name] = len(n.order)
	n.order = append(n.order, name)
	n.net.AddNode(name)
	return nil
}

// onEngineUpdate observes every table change at a node: removals mark the
// tuple's provenance stale (the store keeps the history; the flag records
// that the network no longer derives the tuple — §4.2's offline story
// extended to churn), insertions/removals stream to live subscriptions,
// and every kind — including annotation-only merges, which change a
// row's provenance expression — marks the row dirty for the next
// ReadView and feeds the durable Store's event log. It is called from
// the owning node's scheduler task; the provenance store, the Store, and
// the driver's subscription registry are concurrency-safe.
func (n *Network) onEngineUpdate(name string, t data.Tuple, kind engine.UpdateKind) {
	nd := n.nodes[name]
	if nd != nil {
		switch {
		case kind.Entered():
			nd.Tracker.Restore(t)
		case kind.Left():
			nd.Tracker.Withdraw(t)
		}
	}
	n.mutGen.Add(1)
	if nd != nil && nd.view != nil {
		nd.markViewDirty(t, kind == engine.UpdateExpired)
	}
	if n.store != nil && n.storeErr.Load() == nil {
		ev := StoreEvent{Node: name, Tuple: t, At: n.Clock()}
		switch kind {
		case engine.UpdateAdded:
			ev.Kind = EvInsert
		case engine.UpdateRetracted:
			ev.Kind = EvRetract
		case engine.UpdateExpired:
			ev.Kind = EvExpire
		case engine.UpdateAnnotation:
			ev.Kind = EvProv
		}
		if nd != nil && n.cfg.Prov == provenance.ModeCondensed && (ev.Kind == EvInsert || ev.Kind == EvProv) {
			ev.Prov = nd.Tracker.ExprOf(nd.Engine.AnnotationOf(t))
		}
		n.latchStoreErr(n.store.Append(ev))
	}
	if kind != engine.UpdateAnnotation {
		if d := n.drv; d != nil {
			d.publish(name, t, kind.Entered())
		}
	}
}

// FlushStore blocks until every appended store event is durable (no-op
// without a configured Store). It returns the first store error, if any.
func (n *Network) FlushStore() error {
	if n.store == nil {
		return nil
	}
	n.latchStoreErr(n.store.Flush())
	return n.StoreErr()
}

// sealStore marks a quiescent point on the configured Store and flushes
// it (no-op without one). Errors latch into storeErr.
func (n *Network) sealStore() error {
	if n.store == nil {
		return nil
	}
	var start time.Time
	if n.nm != nil {
		start = time.Now() //provlint:allow detpath metrics flush timing, outside the deterministic state
	}
	n.latchStoreErr(n.store.Seal())
	n.latchStoreErr(n.store.Flush())
	if n.nm != nil {
		n.nm.flushSec.Observe(time.Since(start).Nanoseconds()) //provlint:allow detpath metrics flush timing, outside the deterministic state
	}
	return n.StoreErr()
}

// latchStoreErr keeps err as the Store's first error; nil keeps nothing.
// Only the error branch declares the copy whose address escapes: a
// variable declared in an if statement's init and taken by address would
// be heap-allocated on every call, successful appends included.
func (n *Network) latchStoreErr(err error) {
	if err != nil {
		first := err
		n.storeErr.CompareAndSwap(nil, &first)
	}
}

// StoreErr returns the first error the configured Store reported, or nil.
func (n *Network) StoreErr() error {
	if p := n.storeErr.Load(); p != nil {
		return *p
	}
	return nil
}

// StoreOf returns the configured Store (nil = in-memory only).
func (n *Network) StoreOf() Store { return n.store }

// ProvMode returns the network's provenance mode.
func (n *Network) ProvMode() provenance.Mode { return n.cfg.Prov }

// Report summarizes one Run.
type Report struct {
	// CompletionTime is the wall-clock time to the distributed fixpoint
	// (the paper's "query completion time").
	CompletionTime time.Duration
	// Rounds is the number of scheduler rounds.
	Rounds int
	// Messages and Bytes are the transport totals ("bandwidth usage").
	Messages int64
	Bytes    int64
	// Signed counts signing operations: under RSA one per node per round
	// that shipped anything (the root of the round's hash tree; one per
	// frame with Unbatched), under HMAC one MAC per frame, one per
	// handshake frame under the session transport. Verified counts the
	// matching checks: one per received data or retract frame — every
	// frame is verified on its own, leaf to root to signature — or one
	// per accepted handshake.
	Signed   int64
	Verified int64
	// Handshakes counts session handshake frames shipped; SealedMAC and
	// OpenedMAC count the symmetric session-MAC operations that replace
	// signatures (session transport only).
	Handshakes int64
	SealedMAC  int64
	OpenedMAC  int64
	// HandshakeBytes sums the sealed handshake datagrams, without
	// transport framing (session transport only).
	HandshakeBytes int64
	// RejectedSig counts envelopes dropped for bad signatures.
	RejectedSig int64
	// Derivations and TuplesStored aggregate engine activity.
	Derivations  int64
	TuplesStored int64
	// Retracted counts tuples withdrawn by retraction cascades across all
	// nodes (live link churn only; zero on converge-once workloads).
	Retracted int64
	// Link-liveness counters from the transport (nonzero only on the TCP
	// backend): connections re-established after a drop, frames requeued
	// across a dropped connection, and inbound frames parked for
	// not-yet-registered nodes.
	Reconnects int64
	Requeues   int64
	Parked     int64
	// Reliability counters from the transport (nonzero only when the TCP
	// backend runs with acked delivery): ack frames shipped, sequenced
	// frames re-sent after a reconnect, and duplicate frames suppressed
	// by the receive window.
	Acks        int64
	Retransmits int64
	DupDropped  int64
}

// Run drives the network to a distributed fixpoint: every node evaluates
// to a local fixpoint, exports are shipped, and the loop ends when no
// exports or queued work remain. maxRounds bounds the loop (0 = 1e6).
//
// Run is the lifecycle Driver's converge loop (see driver.go) on the
// caller's goroutine with a background context and a step cap — the loop
// the live pump and AwaitQuiescence run — so batch and live results are
// bit for bit the same tables, rounds, and transport stats under
// Sequential, Unbatched, and every auth scheme. Long-running deployments
// use the Driver directly (Start / Inject / SetLink / Subscribe).
//
// Each round has two phases separated by a barrier: every node runs to
// its local fixpoint and ships its exports, then every node imports the
// messages queued for it. By default both phases run all nodes
// concurrently on a worker pool; cfg.Sequential runs them one after
// another. The phase structure makes the two schedules produce identical
// tables, rounds, and transport stats: within a phase nodes touch only
// their own engine plus the concurrency-safe fabric, and the fabric
// drains in deterministic order regardless of goroutine interleaving.
func (n *Network) Run(maxRounds int) (*Report, error) {
	return n.Driver().run(context.Background(), maxRounds)
}

// runRound executes one scheduler round — an export phase and an import
// phase separated by a barrier — and reports whether any node made
// progress. In the export phase every node ships the withdrawals it owes
// and, when evaluate is set, runs to its local fixpoint and ships its
// exports; in the import phase every node applies what is queued for it.
// With evaluate false this is the withdrawal-only round of
// drainRetractions: queued retract frames ship, inboxes drain
// (withdrawals apply their over-delete phase; any in-flight data still
// lands), but no node evaluates — repair and re-propagation wait for the
// wave to quiesce. ctx is honored mid-round: both phases abort between
// node tasks when it is cancelled.
func (n *Network) runRound(ctx context.Context, evaluate bool) (bool, error) {
	var start time.Time
	if n.nm != nil {
		start = time.Now() //provlint:allow detpath metrics round timing, outside the deterministic state
		n.nm.roundStart()
	}
	if n.session != nil {
		n.session.BeginRound()
	}
	exported, err := n.forEachNode(ctx, (*Network).exportNode, evaluate)
	if err != nil {
		return false, err
	}
	imported, err := n.forEachNode(ctx, (*Network).importNode, evaluate)
	if err != nil {
		return false, err
	}
	if n.nm != nil {
		kind := "round"
		if !evaluate {
			kind = "retract"
		}
		n.nm.roundEnd(n, kind, start)
	}
	return exported || imported, nil
}

// exportNode is a node's task in a round's export phase: it ships the
// withdrawals the node owes and, when evaluate is set, runs it to its
// local fixpoint and ships its exports.
func (n *Network) exportNode(name string, node *Node, evaluate bool, s *roundScratch) (bool, error) {
	retracts := node.pendingRetract
	var exports []engine.Export
	if evaluate {
		exports = node.Engine.RunToFixpoint()
	}
	if len(retracts) == 0 && len(exports) == 0 {
		return false, nil
	}
	// Retract frames go ahead of the round's data frames, so receivers
	// withdraw before they integrate new state.
	frames, err := n.buildRetractFrames(s, s.frames, name, retracts)
	if err == nil {
		frames, err = n.buildExportFrames(s, frames, name, exports)
	}
	// The frames hold the withdrawals now. Nothing queues more during the
	// node's export task, so the array collects the next ones.
	clear(retracts)
	node.pendingRetract = retracts[:0]
	if err != nil {
		return false, err
	}
	s.frames = frames
	return true, n.sealAndSend(s, name, frames)
}

// importNode is a node's task in a round's import phase, the second half
// of the round: it drains and applies the node's inbox.
func (n *Network) importNode(name string, node *Node, _ bool, s *roundScratch) (bool, error) {
	msgs := n.net.Drain(name)
	var start time.Time
	if n.nm != nil {
		start = time.Now() //provlint:allow detpath metrics verify timing, outside the deterministic state
		n.nm.deltasIn.Add(int64(len(msgs)))
	}
	if s.dec == nil {
		s.dec = data.NewLender(n.syms)
	}
	var d *frame // decoded into until it is delivered
	for _, msg := range msgs {
		if d == nil {
			d = s.in.get()
		}
		deliver, err := n.decodeVerify(name, msg, d, s.dec)
		if err != nil {
			// Decoding precedes authentication, so anyone who can
			// reach the socket can send garbage: drop and count it
			// like unverifiable input, never fail the run. The
			// decoder may hold part of a run: swap it for a new one.
			// The frames delivered before keep what the old one lent.
			n.rejectedSig.Add(1)
			s.dec = data.NewLender(n.syms)
		}
		if deliver {
			s.delivered = append(s.delivered, d)
			d = nil
		}
	}
	if n.nm != nil {
		n.nm.verifyNanos.Add(time.Since(start).Nanoseconds()) //provlint:allow detpath metrics verify timing, outside the deterministic state
	}
	n.deliverAll(name, node, s)
	if poisonWire.Load() {
		// The transport takes the array back at the next Drain.
		for i := range msgs {
			msgs[i] = netsim.Message{From: wirePoison, To: wirePoison, Payload: []byte(wirePoison)}
		}
	}
	return len(msgs) > 0, nil
}

// retractsQueued reports whether any node holds unshipped withdrawals.
func (n *Network) retractsQueued() bool {
	for _, name := range n.order {
		if len(n.nodes[name].pendingRetract) > 0 {
			return true
		}
	}
	return false
}

// retractionInFlight reports whether any node holds unshipped
// withdrawals or over-deleted state awaiting repair.
func (n *Network) retractionInFlight() bool {
	for _, name := range n.order {
		if n.nodes[name].Engine.HasPendingRetract() {
			return true
		}
	}
	return n.retractsQueued()
}

// drainRetractions propagates a retraction wave to global quiescence
// before any repair re-propagates: withdrawal-only rounds ship the
// queued retract frames hop by hop, and only when none is in flight
// anywhere does every node run its repair phase (shadow revival,
// restricted re-derivation, aggregate recomputation). Repair cascades
// can queue new withdrawals (vanished aggregate heads), so the whole
// sequence loops until quiet. Completing repair early — while a
// neighbor's withdrawal is still travelling — would briefly revive
// routes that neighbor is about to withdraw (zombie routes) and amplify
// churn traffic; the global drain is what makes incremental
// re-convergence strictly cheaper than a restart. Expiry's repair
// (Network.advance) runs here too. Returns the number of scheduler
// rounds consumed.
func (n *Network) drainRetractions(ctx context.Context) (int, error) {
	rounds := 0
	for {
		for n.retractsQueued() {
			if _, err := n.runRound(ctx, false); err != nil {
				return rounds, err
			}
			rounds++
		}
		// A repaired node must ship its repair's withdrawals before it
		// starts another retraction, which hands their heads' value slab
		// out again (engine.Engine.BeginRetractFacts): from the first
		// repair on, the drain runs to its end.
		if err := ctx.Err(); err != nil {
			return rounds, err
		}
		ctx = context.WithoutCancel(ctx)
		completed, err := n.forEachNode(ctx, (*Network).repairNode, false)
		if err != nil {
			return rounds, err
		}
		if !completed || !n.retractsQueued() {
			return rounds, nil
		}
	}
}

// repairNode runs a node's repair phase, if over-deleted state awaits
// one, and queues the withdrawals it produced.
func (n *Network) repairNode(_ string, node *Node, _ bool, _ *roundScratch) (bool, error) {
	if !node.Engine.HasPendingRetract() {
		return false, nil
	}
	node.pendingRetract = append(node.pendingRetract, node.Engine.CompleteRetract()...)
	return true, nil
}

// nodeTask is one node's share of a scheduler phase; flag is the phase's
// argument (a round's evaluate) and s the scratch of the worker running
// it. forEachNode takes the tasks as method expressions, which capture
// nothing and so cost no allocation per call.
type nodeTask func(n *Network, name string, node *Node, flag bool, s *roundScratch) (bool, error)

// runTask runs task at node name in s and resets s when the task ends,
// whether or not it failed.
func (n *Network) runTask(task nodeTask, name string, flag bool, s *roundScratch) (bool, error) {
	p, err := task(n, name, n.nodes[name], flag, s)
	s.reset()
	return p, err
}

// scratch returns the first k workers' round scratch.
func (n *Network) scratch(k int) []roundScratch {
	p := &n.pool
	if len(p.scratch) < k {
		p.scratch = append(p.scratch, make([]roundScratch, k-len(p.scratch))...)
	}
	return p.scratch[:k]
}

// forEachNode applies task to every node: on a pool of GOMAXPROCS workers,
// each with its own round scratch, or one after another in the first
// scratch under Config.Sequential (the reference schedule the pool is
// pinned against) and wherever the pool would have one worker. It
// returns the OR of the progress flags and the first error in scheduler
// (node registration) order. A cancelled ctx aborts between node tasks
// (the mid-round cancellation point of the lifecycle API) and reports
// the context's error.
func (n *Network) forEachNode(ctx context.Context, task nodeTask, flag bool) (bool, error) {
	workers := min(runtime.GOMAXPROCS(0), len(n.order))
	if n.cfg.Sequential || workers <= 1 {
		progress := false
		s := &n.scratch(1)[0]
		for _, name := range n.order {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			p, err := n.runTask(task, name, flag, s)
			if err != nil {
				return false, err
			}
			progress = progress || p
		}
		return progress, nil
	}
	scratch := n.scratch(workers)
	p := &n.pool
	if len(p.prog) != len(n.order) {
		p.prog = make([]bool, len(n.order))
		p.errs = make([]error, len(n.order))
	}
	// A failure stops the claiming, so the nodes after it keep no
	// earlier call's result.
	clear(p.prog)
	clear(p.errs)
	p.next.Store(0)
	p.slot.Store(0)
	p.failed.Store(false)
	// The caller is one of the workers: a go statement with no arguments
	// allocates nothing, so the call costs this one closure whatever the
	// pool's width.
	work := func() {
		defer p.wg.Done()
		s := &scratch[p.slot.Add(1)-1]
		for {
			i := int(p.next.Add(1)) - 1
			if i >= len(n.order) || p.failed.Load() || ctx.Err() != nil {
				return
			}
			p.prog[i], p.errs[i] = n.runTask(task, n.order[i], flag, s)
			if p.errs[i] != nil {
				p.failed.Store(true) // fail fast: stop claiming more nodes
			}
		}
	}
	p.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	p.wg.Wait()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	progress := false
	for i := range n.order {
		if p.errs[i] != nil {
			return false, p.errs[i]
		}
		progress = progress || p.prog[i]
	}
	return progress, nil
}

// outFrame is one outbound frame prepared from a node's exports, sealed
// and shipped to dst by sealAndSend.
type outFrame struct {
	dst string
	*frame
}

// appendLinkFrames appends what from ships to dest of one frame kind,
// in frames from s's outbound pool: first the handshake frame a new or
// rekeyed session link needs (its RSA work waits for sealAndSend), then
// items as one frame — or, when each is set, one frame per item. A data
// frame's provenance is encoded here, per frame, so every frame —
// Unbatched and replayed ones too — carries what its receiver needs to
// decode it alone.
func (n *Network) appendLinkFrames(s *roundScratch, frames []outFrame, from, dest string, kind byte, items []item, each bool) ([]outFrame, error) {
	if n.session != nil {
		need, epoch, err := n.session.EnsureSession(from, dest)
		if err != nil {
			return nil, err
		}
		if need {
			f := s.out.get()
			*f = frame{kind: kindHandshake, from: from, epoch: epoch}
			frames = append(frames, outFrame{dest, f})
		}
	}
	step := len(items)
	if each {
		step = 1
	}
	for lo := 0; lo < len(items); lo += step {
		f := s.out.get()
		*f = frame{kind: kind, from: from, items: items[lo : lo+step]}
		if kind == kindData {
			f.mode = n.cfg.Prov
			f.encodeProv(n.nodes[from].Tracker, s)
		}
		frames = append(frames, outFrame{dest, f})
	}
	return frames, nil
}

// buildRetractFrames appends a node's pending withdrawals to frames in
// deterministic (first-withdrawal per destination) order: one retract
// frame per destination.
func (n *Network) buildRetractFrames(s *roundScratch, frames []outFrame, from string, ws []engine.Withdrawal) ([]outFrame, error) {
	if len(ws) == 0 {
		return frames, nil
	}
	node := n.nodes[from]
	groups := &s.retracts
	for _, w := range ws {
		groups.add(w.Dest, item{tuple: w.Tuple})
		if n.resupply && node.exports != nil {
			delete(node.exports[w.Dest], w.Tuple.Key()) //provlint:allow keystring export-log key, resupply path only
		}
	}
	for k, dest := range groups.dests {
		var err error
		if frames, err = n.appendLinkFrames(s, frames, from, dest, kindRetract, groups.items[k], false); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// buildExportFrames appends one node's round exports to frames as data
// frames in deterministic (first-export per destination) send order — one
// per destination, or one per tuple under Config.Unbatched — deferring
// all cryptographic work (signing, MACing, handshake RSA) to sealAndSend.
func (n *Network) buildExportFrames(s *roundScratch, frames []outFrame, from string, exports []engine.Export) ([]outFrame, error) {
	if len(exports) == 0 {
		return frames, nil
	}
	node := n.nodes[from]
	groups := &s.exports
	for _, ex := range exports {
		it := item{tuple: ex.Tuple, ann: ex.Ann}
		if n.resupply {
			if node.exports == nil {
				node.exports = make(map[string]map[string]item)
			}
			perDest := node.exports[ex.Dest]
			if perDest == nil {
				perDest = make(map[string]item)
				node.exports[ex.Dest] = perDest
			}
			perDest[ex.Tuple.Key()] = it //provlint:allow keystring export-log key, resupply path only
		}
		groups.add(ex.Dest, it)
	}
	for k, dest := range groups.dests {
		var err error
		if frames, err = n.appendLinkFrames(s, frames, from, dest, kindData, groups.items[k], n.cfg.Unbatched); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// sealAndSend performs the cryptographic half of the export path: it
// seals one sender's prepared frames with one sealer call (one RSA
// signature for the round, or a session MAC per frame, plus any handshake
// RSA) and ships them in order, working in s. Under Config.Unbatched
// every frame is sealed alone — the paper's one signature per tuple.
func (n *Network) sealAndSend(s *roundScratch, from string, frames []outFrame) error {
	var start time.Time
	if n.nm != nil {
		start = time.Now() //provlint:allow detpath metrics seal timing, outside the deterministic state
		n.nm.deltasOut.Add(int64(len(frames)))
	}
	if len(frames) > 0 {
		n.markActive(from)
	}
	step := len(frames)
	if n.cfg.Unbatched {
		step = 1
	}
	var err error
	for lo := 0; lo < len(frames) && err == nil; lo += step {
		err = n.sealBatch(s, from, frames[lo:lo+step])
	}
	if n.nm != nil {
		n.nm.sealNanos.Add(time.Since(start).Nanoseconds()) //provlint:allow detpath metrics seal timing, outside the deterministic state
	}
	return err
}

// sealBatch seals frames together in s and ships them.
func (n *Network) sealBatch(s *roundScratch, from string, frames []outFrame) error {
	signs, err := sealFrames(s, n.sealer, from, frames, func(f outFrame, datagram []byte) error {
		err := n.net.Send(from, f.dst, datagram)
		if err == nil && f.kind == kindHandshake {
			n.hsBytes.Add(int64(len(datagram)))
		}
		return err
	})
	if n.session == nil && n.cfg.Auth != auth.SchemeNone {
		n.signed.Add(int64(signs))
	}
	return err
}

// decodeVerify decodes and authenticates one datagram at node name into
// f with dec and reports whether f is a data or retract frame to deliver.
// Handshake and termination frames are consumed here; unverifiable input
// is dropped and counted, as a router drops what it cannot authenticate.
// false with a nil error means the datagram was fully handled or dropped;
// an error means it was malformed, which the caller drops and counts the
// same way.
func (n *Network) decodeVerify(name string, msg netsim.Message, f *frame, dec *data.Decoder) (bool, error) {
	if err := f.decode(msg.Payload, n.syms, dec); err != nil {
		return false, err
	}
	// The receiver's own configuration picks the sealer, never the frame:
	// a session deployment opens data with session keys only.
	sealer := n.sealer
	switch f.kind {
	case kindToken, kindTerminate:
		sealer = n.control
	case kindData, kindRetract:
		if n.session == nil && n.cfg.Auth != auth.SchemeNone {
			n.checked.Add(1)
		}
	}
	if err := f.open(sealer, name); err != nil {
		// Nothing in an unopened frame is trustworthy: a forged batch must
		// add no state, a forged withdrawal remove none, a forged token
		// fake no fixpoint.
		n.rejectedSig.Add(1)
		return false, nil
	}
	switch f.kind {
	case kindData, kindRetract:
		return true, nil
	case kindToken, kindTerminate:
		if td := n.term.Load(); td != nil {
			// The detector keeps the frame; f is scratch.
			td.handleControl(name, &frame{kind: f.kind, from: f.from, wave: f.wave, acts: f.acts})
		}
	}
	return false, nil
}

// deliverAll applies one node's round deliveries: data deliveries insert
// in arrival order, and every retraction delivery of the round is
// batched into a single cascade at the end. Round-level batching keeps a
// candidate one sender is about to withdraw from briefly reviving off
// another frame (a zombie route) and amplifying churn traffic; the
// origin-support model makes insert-vs-retract of different senders
// commute, so deferring retractions does not change the fixpoint. The
// deliveries and the withdrawals gathered from them are s's.
func (n *Network) deliverAll(name string, node *Node, s *roundScratch) {
	if len(s.delivered) > 0 {
		n.markActive(name)
	}
	inbound := s.inbound
	for _, d := range s.delivered {
		if d.kind == kindRetract {
			for _, it := range d.items {
				inbound = append(inbound, engine.InboundRetraction{From: d.from, Tuple: it.tuple})
			}
			continue
		}
		n.deliver(node, d)
	}
	if len(inbound) > 0 {
		// Over-delete now; repair runs when drainRetractions sees the
		// wave quiesce — the next step's, if this round evaluates.
		node.pendingRetract = append(node.pendingRetract, node.Engine.BeginRetractInbound(inbound)...)
	}
	s.inbound = inbound
}

// deliver inserts one verified data frame at node. Every item's
// annotation is decoded before any item is inserted: a frame with one
// that does not decode is dropped whole and counted like
// unverifiable input, never an error — the sender authenticated it, but
// one bad frame must not stop a node.
func (n *Network) deliver(node *Node, d *frame) {
	if err := d.decodeProv(node.Tracker); err != nil {
		n.rejectedSig.Add(1)
		return
	}
	for _, it := range d.items {
		node.Engine.InsertImportedAnnFrom(d.from, it.tuple, it.ann)
	}
}

func (n *Network) report(start time.Time, rounds int) *Report {
	stats := n.net.Stats()
	r := &Report{
		CompletionTime: time.Since(start), //provlint:allow detpath report wall-clock, never feeds evaluation
		Rounds:         rounds,
		Messages:       stats.Messages,
		Bytes:          stats.Bytes,
		HandshakeBytes: n.hsBytes.Load(),
		Reconnects:     stats.Reconnects,
		Requeues:       stats.Requeues,
		Parked:         stats.Parked,
		Acks:           stats.AckMessages,
		Retransmits:    stats.Retransmits,
		DupDropped:     stats.DupDropped,
		Signed:         n.signed.Load(),
		Verified:       n.checked.Load(),
		RejectedSig:    n.rejectedSig.Load(),
	}
	if n.session != nil {
		hs, acc, sealed, opened := n.session.SessionStats()
		r.Signed += hs
		r.Verified += acc
		r.Handshakes = hs
		r.SealedMAC = sealed
		r.OpenedMAC = opened
	}
	for _, node := range n.nodes { //provlint:allow mapiter commutative integer sums; order cannot escape
		r.Derivations += node.Engine.Stats.Derivations
		r.TuplesStored += node.Engine.Stats.TuplesStored
		r.Retracted += node.Engine.Stats.Retracted
	}
	return r
}

// markActive records activity at a node for the termination detector:
// any export shipped or delivery applied dirties the node, forcing the
// current detection wave to restart. One atomic load when no detector
// is installed.
func (n *Network) markActive(node string) {
	if td := n.term.Load(); td != nil {
		td.markDirty(node)
	}
}

// resupplyAll replays every hosted node's export log (Network.resupply):
// the soft-state re-announcement after a peer process restart. Outbound
// sessions are reset first so session links re-handshake — the restarted
// peer lost its inbound session keys with its tables. Called between
// rounds by the driver, so it runs the nodes one after another in the
// first round scratch.
func (n *Network) resupplyAll() error {
	if n.session != nil {
		n.session.ResetOutbound()
	}
	s := &n.scratch(1)[0]
	for _, name := range n.order {
		if _, err := n.runTask((*Network).resupplyNode, name, false, s); err != nil {
			return err
		}
	}
	return nil
}

// resupplyNode replays one node's export log. Destinations and tuples
// replay in sorted order so the resupply traffic is deterministic for a
// given table state.
func (n *Network) resupplyNode(name string, nd *Node, _ bool, s *roundScratch) (bool, error) {
	if len(nd.exports) == 0 {
		return false, nil
	}
	dests := make([]string, 0, len(nd.exports))
	for dest := range nd.exports {
		dests = append(dests, dest)
	}
	sort.Strings(dests)
	frames := s.frames
	for _, dest := range dests {
		perDest := nd.exports[dest]
		if len(perDest) == 0 {
			continue
		}
		keys := make([]string, 0, len(perDest))
		for k := range perDest {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		items := make([]item, len(keys))
		for i, k := range keys {
			items[i] = perDest[k]
		}
		var err error
		if frames, err = n.appendLinkFrames(s, frames, name, dest, kindData, items, false); err != nil {
			return false, err
		}
	}
	if len(frames) == 0 {
		return false, nil
	}
	s.frames = frames
	return true, n.sealAndSend(s, name, frames)
}

// --- runtime interaction ---

// Node returns a node's components.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Nodes returns node names in scheduler order.
func (n *Network) Nodes() []string {
	out := make([]string, len(n.order))
	copy(out, n.order)
	return out
}

// Tuples returns the live tuples of a predicate at a node.
func (n *Network) Tuples(node, pred string) []data.Tuple {
	nd, ok := n.nodes[node]
	if !ok {
		return nil
	}
	return nd.Engine.Tuples(pred)
}

// Clock returns the logical time (seconds). It is safe to call while a
// live driver runs: only Driver.Advance moves it.
func (n *Network) Clock() float64 { return math.Float64frombits(n.clock.Load()) }

// advance moves logical time forward by dt seconds, expiring soft state
// everywhere, dropping the online provenance of expired tuples (offline
// copies persist, §4.2), and aging out offline provenance. The driver
// applies it between rounds, under its run lock (Driver.Advance). A row
// the expiry's repair withdraws at the drain (a head whose window
// emptied) is marked stale there and forgotten at the next advance.
func (n *Network) advance(dt float64) {
	now := n.Clock() + dt
	n.clock.Store(math.Float64bits(now))
	for _, name := range n.order {
		nd := n.nodes[name]
		n.markActive(name)
		nd.Engine.Expire(now)
		if nd.Store == nil {
			continue
		}
		// Online provenance follows its tuples: expired state loses its
		// online entries; the offline tier keeps them for forensics.
		for _, key := range nd.Store.Keys() {
			if e, ok := nd.Store.Get(key); ok && !nd.Engine.Has(e.Tuple) {
				nd.Store.Forget(key)
			}
		}
		nd.Store.AgeOut(now)
	}
}

// Resolver exposes all stores to the distributed provenance traceback.
func (n *Network) Resolver() provenance.Resolver {
	return provenance.ResolverFunc(func(name string) *provenance.Store {
		if nd, ok := n.nodes[name]; ok {
			return nd.Store
		}
		return nil
	})
}

// DerivationTree returns the derivation tree of a stored tuple. For
// ModeLocal it is read off the tuple's annotation; for ModeDistributed it
// is reconstructed by the traceback query; ModeCondensed keeps no trees.
func (n *Network) DerivationTree(node string, t data.Tuple, opts provenance.QueryOpts) (*provenance.Tree, *provenance.QueryStats, error) {
	nd, ok := n.nodes[node]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown node %q", node)
	}
	switch n.cfg.Prov {
	case provenance.ModeLocal:
		ann := nd.Engine.AnnotationOf(t)
		tree, ok := ann.(*provenance.Tree)
		if !ok || tree == nil {
			return nil, nil, fmt.Errorf("core: no local provenance for %s at %s", t, node)
		}
		return tree, &provenance.QueryStats{}, nil
	case provenance.ModeDistributed:
		return provenance.Trace(n.Resolver(), node, nd.Store.Key(t), opts)
	default:
		return nil, nil, fmt.Errorf("core: mode %v keeps no derivation trees", n.cfg.Prov)
	}
}

// CondensedExpr returns the paper-style <...> condensed provenance
// annotation of a stored tuple (ModeCondensed).
func (n *Network) CondensedExpr(node string, t data.Tuple) string {
	nd, ok := n.nodes[node]
	if !ok {
		return ""
	}
	return nd.Tracker.ExprOf(nd.Engine.AnnotationOf(t))
}

// Poly returns the provenance polynomial of a stored tuple
// (ModeCondensed), for quantifiable-trust evaluation.
func (n *Network) Poly(node string, t data.Tuple) semiring.Poly {
	nd, ok := n.nodes[node]
	if !ok {
		return semiring.Zero()
	}
	return nd.Tracker.PolyOf(nd.Engine.AnnotationOf(t))
}

// FactPoly returns the provenance polynomial of a logical fact at a node,
// combining (+) the annotations of every stored assertion of the fact
// regardless of asserting principal. This produces exactly the paper's
// Figure 2 annotation for reachable(a,c): node a holds "a says
// reachable(a,c)" with <a> and "b says reachable(a,c)" with <a*b>, and
// their union is <a + a*b>, condensing to <a>.
func (n *Network) FactPoly(node string, t data.Tuple) semiring.Poly {
	nd, ok := n.nodes[node]
	if !ok {
		return semiring.Zero()
	}
	sum := semiring.Zero()
	for _, stored := range nd.Engine.Tuples(t.Pred) {
		if !stored.WithoutAsserter().Equal(t.WithoutAsserter()) {
			continue
		}
		sum = sum.Add(nd.Tracker.PolyOf(nd.Engine.AnnotationOf(stored)))
	}
	return sum
}

// Transport exposes the message substrate (for traffic inspection). It
// is the in-memory netsim fabric unless Config.Transport overrode it.
func (n *Network) Transport() Transport { return n.net }
