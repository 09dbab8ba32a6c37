// Package engine implements the per-node distributed query processor: the
// P2-style dataflow runtime that executes localized NDlog/SeNDlog rules
// over soft-state tables (paper §2, §6).
//
// Each node of the simulated network runs one Engine. The engine holds the
// node's materialized tables (with TTLs and primary keys), evaluates rules
// semi-naively as tuples arrive, maintains head aggregates (min/max/
// count/sum), applies the aggregate-selection optimization, and produces
// Export records for derived tuples whose head location is another node.
// Provenance is captured through a pluggable ProvHook so the same engine
// serves every provenance mode in the paper's taxonomy (§4).
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"provnet/internal/data"
	"provnet/internal/datalog"
)

// Annotation is an opaque per-tuple provenance annotation managed by the
// configured ProvHook. The engine never inspects it.
type Annotation any

// AnnTuple pairs a tuple with its annotation, as presented to ProvHook
// callbacks for rule derivations.
type AnnTuple struct {
	Tuple data.Tuple
	Ann   Annotation

	// hash carries the tuple's cached structural hash when the AnnTuple
	// was built from a stored entry (0 = unknown, recompute on demand).
	hash uint64
}

// tupleHash returns the tuple's structural hash, cached or computed.
func (a AnnTuple) tupleHash() uint64 {
	if a.hash != 0 {
		return a.hash
	}
	return a.Tuple.Hash()
}

// ProvHook is the provenance capture interface (paper §4). The engine
// calls it at every point where provenance is created, combined, or
// serialized. Implementations for the taxonomy's modes live in
// internal/provenance.
type ProvHook interface {
	// Base annotates a locally inserted base tuple.
	Base(t data.Tuple) Annotation
	// Import reconstructs the annotation of a tuple received from the
	// network together with its provenance payload (may be nil).
	Import(t data.Tuple, payload []byte) (Annotation, error)
	// Derive combines body annotations when rule fires at this node
	// producing head.
	Derive(rule, node string, head data.Tuple, body []AnnTuple) Annotation
	// Merge combines an alternative derivation into an existing
	// annotation; it returns the merged annotation and whether it changed
	// (a change re-propagates the tuple).
	Merge(existing, incoming Annotation) (Annotation, bool)
	// Export serializes the annotation for shipment with the tuple (nil
	// for modes that ship nothing).
	Export(t data.Tuple, ann Annotation) []byte
}

// NoProv is the null provenance hook: no annotations, no payloads, no
// re-propagation. It is the NDlog/SeNDlog (non-Prov) configuration of the
// paper's evaluation.
type NoProv struct{}

// Base returns nil.
func (NoProv) Base(data.Tuple) Annotation { return nil }

// Import returns nil.
func (NoProv) Import(data.Tuple, []byte) (Annotation, error) { return nil, nil }

// Derive returns nil.
func (NoProv) Derive(string, string, data.Tuple, []AnnTuple) Annotation { return nil }

// Merge reports no change.
func (NoProv) Merge(existing, incoming Annotation) (Annotation, bool) { return existing, false }

// Export ships nothing.
func (NoProv) Export(data.Tuple, Annotation) []byte { return nil }

// Export is a derived tuple addressed to another node, produced by
// RunToFixpoint. The core layer signs and serializes it onto the simulated
// network.
type Export struct {
	Dest  string
	Tuple data.Tuple
	Ann   Annotation
}

// Config configures an Engine.
type Config struct {
	// Self is this node's identifier, doubling as its security principal
	// name in SeNDlog mode.
	Self string
	// Authenticated marks derived tuples with Self as asserter, modelling
	// the SeNDlog world where every exported tuple is said by its
	// deriving principal.
	Authenticated bool
	// Hook captures provenance; nil means NoProv.
	Hook ProvHook
	// OnUpdate, when set, observes every table change, classified by
	// UpdateKind (insertion, retraction, soft-state expiry, or an
	// annotation-only merge of an alternative derivation). t is always
	// the stored row's own tuple, never an Equal one the caller supplied
	// (Int 2 and Float 2.0 are Equal), so an observer keeping a sorted
	// copy of a table can match rows exactly. It is called synchronously
	// from the engine's (single) driving goroutine; implementations must
	// not call back into the engine.
	OnUpdate func(t data.Tuple, kind UpdateKind)
}

// defaultShadowCap bounds the aggregate-selection prune shadow per
// group: enough to keep every realistic alternate route revivable
// without letting long-churning runs grow the shadow without bound.
// Overflow evicts the least-competitive candidate; a revival that may
// have lost candidates to eviction falls back to re-deriving the group
// (rederiveGroup).
const defaultShadowCap = 64

// Engine is a single node's query processor. It is not safe for concurrent
// use; the network simulator drives all nodes from one goroutine, which
// keeps runs deterministic.
type Engine struct {
	self          string
	authenticated bool
	hook          ProvHook
	// noProv marks the null provenance hook: annotation bookkeeping that
	// exists only to feed Derive (aggregate witness bodies, body-copy
	// retention) is skipped on the hot path.
	noProv   bool
	onUpdate func(t data.Tuple, kind UpdateKind)

	// prog is the loaded program, shared read-only with every engine of
	// the network (noProgram until Load).
	prog     *Program
	tables   map[string]*Table
	prunes   map[string]*pruneSpec
	aggState map[string]*aggGroupState // keyed by rule label + group key

	// queue is the delta awaiting evaluation and spareQueue the drained
	// batch array RunToFixpoint fills next; exports collects the remote
	// heads RunToFixpoint returns, its array reused by the next call.
	queue, spareQueue []*Entry
	exports           []Export

	// scratch is the reusable evalScratch, sized by the program;
	// firedBuf is the reused per-wave firing table.
	scratch  *evalScratch
	firedBuf [][]pending

	// pend accumulates over-deletion state between BeginRetract* and the
	// CompleteRetract that repairs it (see retract.go). spare is a repaired
	// one, reset, and wq the withdrawal set, both kept for the next
	// retraction instead of allocated anew. begun and completed are the
	// arrays the two phases return their withdrawals in. work is
	// over-deletion's queue, cands the re-derivation's candidates by
	// predicate, repairBuf an over-deletion's or a repair's firings and
	// revived a shadow revival's rows, each reused. heads is the current
	// retraction's value slab (startRetract).
	pend      *retractPending
	spare     *retractPending
	wq        *pairSet
	begun     []Withdrawal
	completed []Withdrawal
	work      []retractItem
	cands     map[string][]*pair
	repairBuf []pending
	revived   []shadowRow
	heads     slab[data.Value]
	// rederive, while non-nil, filters emit to the tuples the repair it
	// belongs to deleted and the exports it withdrew (DRed's
	// re-derivation phase) instead of inserting/exporting everything.
	rederive *retractPending
	// evicted holds the aggregate-selection groups of rows a table's size
	// bound evicted. RunToFixpoint relaxes them between waves rather than
	// insert, which may run inside an evaluation.
	evicted groupSet

	now float64

	// Stats counts engine activity for the metrics report.
	Stats Stats
}

// Stats counts engine activity.
type Stats struct {
	Derivations   int64 // rule firings
	TuplesStored  int64
	TuplesDropped int64 // rejected by aggregate selection
	Merges        int64 // alternative derivations merged into existing tuples
	Expired       int64
	Retracted     int64 // tuples withdrawn by retraction cascades
	Waves         int64 // non-empty delta waves evaluated
	// IdleWithdrawals counts inbound withdrawals that found neither a row
	// holding their sender's support nor a shadow row: nothing to withdraw.
	IdleWithdrawals int64
}

// atomRef locates a body atom within a compiled rule.
type atomRef struct {
	rule *compiledRule
	atom int // index into rule.atoms
}

// pruneDecl is one compiled aggregate-selection declaration: the group
// key columns, the index slot on them, with which a revival probes a
// group's surviving rows, and the column whose min or max is kept.
type pruneDecl struct {
	pred    string
	keyCols []int
	slot    int
	col     int
	min     bool
}

// pruneSpec is one aggregate-selection declaration's state at an engine.
// Groups are keyed by the structural hash of the group columns,
// colliding groups chained through pruneGroupState.next (which holds the
// identity for the equality check); each group carries its installed
// best, its shadow of rejected candidates, and its lossy flag in one
// place instead of three parallel string-keyed maps. The shadow rows of
// all groups share one chain, keyed by the group's hash folded with the
// row's.
type pruneSpec struct {
	pruneDecl
	// cap bounds each group's shadow: overflow evicts
	// the least-competitive row and marks the group lossy, so a later
	// revival knows candidates may be missing and falls back to
	// re-deriving the group instead of trusting the shadow alone.
	cap    int
	groups chain[pruneGroupState]
	shadow chain[shadowRow]
	// evictions counts rows enforceCap dropped, summed across specs by
	// Engine.ShadowEvictions (pruneSpec methods have no engine pointer,
	// so the count lives here rather than in Stats).
	evictions int64

	// Groups and their identity values, and shadow rows, come from slabs.
	// A removed shadow row goes back to its slab for the next one: rows
	// come and go with every relaxation, and no pointer to one outlives
	// its removal. A shadow row's values live in the predicate's table
	// (tbl), as a stored row's do.
	groupSlab slab[pruneGroupState]
	valSlab   slab[data.Value]
	rowSlab   slab[shadowRow]
	tbl       *Table
	dropped   *pruneGroupState
}

// pruneGroupState is one aggregate-selection group: identity (asserter +
// group-column values; the predicate is the spec's), installed best, and
// the shadow of prune-rejected candidates retained for possible revival.
// Without the shadow, pruned alternatives would be unrecoverable after a
// link cut (they were dropped before storage and their senders will not
// re-ship them).
type pruneGroupState struct {
	hash     uint64
	next     *pruneGroupState // the next group with the same hash
	asserter string
	vals     []data.Value
	hasBest  bool
	best     data.Value
	// shadow lists the group's shadow rows through shadowRow.sib, the
	// latest first; nshadow counts them.
	shadow  *shadowRow
	nshadow int
	lossy   bool
	dropped bool
}

func (g *pruneGroupState) link() **pruneGroupState { return &g.next }

func (r *shadowRow) link() **shadowRow { return &r.next }

// matches reports whether t belongs to this group (the equality fallback
// behind the group-hash key). The predicate is implied by the spec.
func (g *pruneGroupState) matches(t data.Tuple, keyCols []int) bool {
	if t.Asserter != g.asserter {
		return false
	}
	for i, c := range keyCols {
		if !t.Args[c].Equal(g.vals[i]) {
			return false
		}
	}
	return true
}

// group finds or creates the group state for tuple t.
func (ps *pruneSpec) group(t data.Tuple) *pruneGroupState {
	h := t.HashCols(ps.keyCols)
	if g := ps.find(h, t); g != nil {
		return g
	}
	g := ps.groupSlab.alloc()
	if g.vals == nil {
		g.vals = ps.valSlab.take(len(ps.keyCols))
	}
	g.hash, g.asserter = h, t.Asserter
	for i, c := range ps.keyCols {
		g.vals[i] = persist(&ps.valSlab, t.Args[c])
	}
	ps.groups.push(h, g)
	return g
}

// findGroup returns the existing group for t, or nil.
func (ps *pruneSpec) findGroup(t data.Tuple) *pruneGroupState {
	return ps.find(t.HashCols(ps.keyCols), t)
}

func (ps *pruneSpec) find(h uint64, t data.Tuple) *pruneGroupState {
	for g := ps.groups.first(h); g != nil; g = g.next {
		if g.matches(t, ps.keyCols) {
			return g
		}
	}
	return nil
}

// maybeDrop removes an emptied group (no best, no shadow, not lossy) from
// the spec so long-churning runs do not accumulate dead group states. A
// relaxed-group list may still hold it, so it waits on dropped, chained
// through next, for recycle.
func (ps *pruneSpec) maybeDrop(g *pruneGroupState) {
	if g.hasBest || g.nshadow > 0 || g.lossy || g.dropped {
		return
	}
	ps.groups.unlink(g.hash, g)
	g.dropped, g.next, ps.dropped = true, ps.dropped, g
}

// recycle hands the dropped groups back to the slab, each keeping its
// identity array for the next group. Nothing may point at them: the
// engine calls it when no retraction is pending.
func (ps *pruneSpec) recycle() {
	for g := ps.dropped; g != nil; {
		next, vals := g.next, g.vals
		ps.groupSlab.put(g)
		g.vals = vals
		g = next
	}
	ps.dropped = nil
}

// shadowRow is one prune-rejected candidate kept for possible revival,
// with the support it would have carried as a stored entry.
type shadowRow struct {
	tuple data.Tuple
	ann   Annotation
	support
	g    *pruneGroupState
	key  uint64     // the spec's shadow chain key: g's hash folded with the tuple's
	next *shadowRow // the next row of the spec with the same key
	sib  *shadowRow // the next row of g
}

// shadowKey keys tuple hash h's row of group g in its spec's shadow
// chain.
func shadowKey(g *pruneGroupState, h uint64) uint64 { return (g.hash*hashPrime ^ h) * hashPrime }

// New creates an engine for node self.
func New(cfg Config) *Engine {
	hook := cfg.Hook
	if hook == nil {
		hook = NoProv{}
	}
	_, noProv := hook.(NoProv)
	return &Engine{
		self:          cfg.Self,
		authenticated: cfg.Authenticated,
		hook:          hook,
		noProv:        noProv,
		onUpdate:      cfg.OnUpdate,
		prog:          noProgram,
		tables:        make(map[string]*Table),
		aggState:      make(map[string]*aggGroupState),
	}
}

// UpdateKind classifies a table change reported through Config.OnUpdate.
type UpdateKind uint8

const (
	// UpdateAdded: the tuple entered the table.
	UpdateAdded UpdateKind = iota
	// UpdateRetracted: the tuple left the table via a retraction cascade
	// (or was displaced by an aggregate-selection replacement).
	UpdateRetracted
	// UpdateExpired: the tuple's soft-state TTL lapsed.
	UpdateExpired
	// UpdateAnnotation: the tuple stayed put but its provenance
	// annotation absorbed an alternative derivation (hook merge).
	UpdateAnnotation
)

// Entered reports whether the kind adds a tuple to the table (the other
// kinds either remove it or leave membership unchanged).
func (k UpdateKind) Entered() bool { return k == UpdateAdded }

// Left reports whether the kind removes a tuple from the table.
func (k UpdateKind) Left() bool { return k == UpdateRetracted || k == UpdateExpired }

// String names the kind for logs and wire-adjacent encodings.
func (k UpdateKind) String() string {
	switch k {
	case UpdateAdded:
		return "added"
	case UpdateRetracted:
		return "retracted"
	case UpdateExpired:
		return "expired"
	case UpdateAnnotation:
		return "annotation"
	default:
		return fmt.Sprintf("UpdateKind(%d)", uint8(k))
	}
}

// notify reports a table change to the observer, if any.
func (e *Engine) notify(t data.Tuple, kind UpdateKind) {
	if e.onUpdate != nil {
		e.onUpdate(t, kind)
	}
}

// Self returns the node identifier.
func (e *Engine) Self() string { return e.self }

// Now returns the logical clock.
func (e *Engine) Now() float64 { return e.now }

// LoadProgram compiles prog and loads it (Compile, then Load), for an
// engine that shares its program with no other.
func (e *Engine) LoadProgram(prog *datalog.Program) error {
	p, err := Compile(prog)
	if err != nil {
		return err
	}
	return e.Load(p)
}

// Load installs a compiled program, which the engine only reads: one
// Program serves every engine of a network. An engine holds one program,
// so a second Load is refused.
func (e *Engine) Load(p *Program) error {
	if e.prog != noProgram {
		return errors.New("engine: a program is already loaded")
	}
	e.prog = p
	e.prunes = make(map[string]*pruneSpec, len(p.prunes))
	for _, d := range p.prunes {
		e.prunes[d.pred] = &pruneSpec{
			pruneDecl: d,
			cap:       defaultShadowCap,
			groups:    newChain((*pruneGroupState).link),
			shadow:    newChain((*shadowRow).link),
			tbl:       e.tables[d.pred], // nil until table creates it
		}
	}
	return nil
}

// Program returns the loaded program (an empty one before Load).
func (e *Engine) Program() *Program { return e.prog }

// table returns (creating if needed) the table for pred, configured from
// its materialize declaration.
func (e *Engine) table(pred string) *Table {
	t, ok := e.tables[pred]
	if ok {
		return t
	}
	var keyCols []int
	ttl := -1.0
	maxSize := -1
	if d, ok := e.prog.decls[pred]; ok {
		for _, c := range d.KeyCols {
			keyCols = append(keyCols, c-1)
		}
		ttl = d.TTLSeconds
		maxSize = d.MaxSize
	}
	t = NewTable(pred, keyCols, ttl, maxSize)
	e.tables[pred] = t
	if ps := e.prunes[pred]; ps != nil {
		ps.tbl = t
	}
	return t
}

// SetTableKeys overrides the primary key columns of a predicate's table
// (0-based). It must be called before tuples are inserted.
func (e *Engine) SetTableKeys(pred string, cols []int) {
	t := e.table(pred)
	t.keyCols = cols
}

// InsertFact inserts a base tuple at this node with its declared TTL. In
// authenticated mode the fact is asserted by this node unless it already
// carries an asserter. The caller hands t over: a row or shadow row keeps
// its values as they are, so the caller must not change them afterwards.
func (e *Engine) InsertFact(t data.Tuple) {
	if e.authenticated && t.Asserter == "" {
		t.Asserter = e.self
	}
	e.insert(t, e.hook.Base(t), support{local: true}, 0, true)
}

// InsertImportedFrom inserts a tuple received from the network together
// with its provenance payload; signature verification happens in the
// transport layer before this call. The sending node is recorded as the
// tuple's support origin, so a later retraction by that sender removes
// exactly the support it contributed. An empty from is treated as local
// support (the pre-churn behavior).
func (e *Engine) InsertImportedFrom(from string, t data.Tuple, provPayload []byte) error {
	ann, err := e.hook.Import(t, provPayload)
	if err != nil {
		return err
	}
	e.insert(t, ann, supportFrom(from), 0, false)
	return nil
}

// InsertImportedAnnFrom inserts a received tuple whose annotation the
// caller already reconstructed — the network layer decodes every
// annotation of a frame (one provenance table for all of them, under
// condensed provenance) before it inserts any — with the sender recorded
// as support origin. Like every insert it only queues the tuple: the
// whole delta is processed by the next RunToFixpoint.
func (e *Engine) InsertImportedAnnFrom(from string, t data.Tuple, ann Annotation) {
	e.insert(t, ann, supportFrom(from), 0, false)
}

// insert stores a tuple and queues it for semi-naive processing: the one
// place a tuple enters a table. It applies the aggregate-selection prune
// and primary-key replacement. sup is the support being applied: one
// source on the per-tuple path (a local one, or one remote sender), and
// everything a candidate accumulated in the shadow when it is revived.
// hash is t's cached structural hash when known (0 = compute on demand).
// owned says t's values may be kept as they are: they live in its
// table's storage already (a head fire carved there, a stored row's
// tuple, a shadow row's) or were handed over (a base fact). Any other
// tuple's are the caller's, such as a received tuple, whose values die
// with its import: a row or shadow row that keeps it keeps a copy. A
// duplicate keeps nothing and copies nothing.
func (e *Engine) insert(t data.Tuple, ann Annotation, sup support, hash uint64, owned bool) {
	// Aggregate selection: drop tuples that do not improve their group.
	// A tuple identical to a stored live row bypasses the prune and takes
	// the duplicate path below instead: shadowing a stored tuple would
	// leave a copy of it in the shadow, and a later retraction of the row
	// would resurrect it from its own shadow entry (and the re-insert
	// must refresh the row's TTL and merge its support, which the shadow
	// never did).
	tbl := e.table(t.Pred)
	var g *pruneGroupState
	ps, ok := e.prunes[t.Pred]
	if ok && !e.storedLive(t) {
		g = ps.group(t)
		if g.hasBest {
			c := t.Args[ps.col].Compare(g.best)
			if (ps.min && c >= 0) || (!ps.min && c <= 0) {
				e.Stats.TuplesDropped++
				ps.addShadowRow(g, t, ann, sup, owned)
				return
			}
		}
		g.hasBest = true
		ps.dropShadow(g, t)
	}

	entry, replaced, status := tbl.insertHashed(t, ann, e.now, hash, owned)
	entry.support.add(sup)
	if g != nil {
		// The installed best is the stored row's value, not the caller's.
		g.best = entry.Tuple.Args[ps.col]
	}
	switch status {
	case InsertNew, InsertReplaced:
		e.Stats.TuplesStored++
		e.queue = append(e.queue, entry)
		if replaced != nil {
			e.notify(replaced.Tuple, UpdateRetracted)
			e.staleAggs(replaced.Tuple.Pred)
		}
		e.notify(entry.Tuple, UpdateAdded)
		if status == InsertNew {
			e.lapse(t.Pred, tbl.evict(), false)
		}
	case InsertDuplicate:
		merged, changed := e.hook.Merge(entry.Ann, ann)
		entry.Ann = merged
		if changed {
			e.Stats.Merges++
			e.queue = append(e.queue, entry)
			e.notify(entry.Tuple, UpdateAnnotation)
		}
	}
}

// enforceCap bounds one group's shadow: when the cap is exceeded, one
// row is dropped and the group is marked lossy so a later revival knows
// to fall back to re-deriving the group. Victim selection: rows with
// local support go first — the fallback can re-derive those from this
// node's own rules, while a remote-only row (shipped by a sender that
// believes we still hold it) is unrecoverable once dropped. Within a
// class, worst-first (farthest from the optimum; ties broken by
// data.CompareTuples) keeps the rows most likely to become the next best.
func (ps *pruneSpec) enforceCap(g *pruneGroupState) {
	if g.nshadow <= ps.cap {
		return
	}
	var worst *shadowRow
	for row := g.shadow; row != nil; row = row.sib {
		betterVictim := false
		switch {
		case worst == nil:
			betterVictim = true
		case row.local != worst.local:
			betterVictim = row.local
		default:
			c := row.tuple.Args[ps.col].Compare(worst.tuple.Args[ps.col])
			if c == 0 {
				betterVictim = data.CompareTuples(worst.tuple, row.tuple) < 0
			} else if ps.min {
				betterVictim = c > 0
			} else {
				betterVictim = c < 0
			}
		}
		if betterVictim {
			worst = row
		}
	}
	if worst != nil {
		ps.removeShadow(g, worst)
		g.lossy = true
		ps.evictions++
	}
}

// findShadow returns t's shadow row in group g, or nil.
func (ps *pruneSpec) findShadow(g *pruneGroupState, t data.Tuple) *shadowRow {
	if g.nshadow == 0 {
		return nil
	}
	return ps.shadowAt(shadowKey(g, t.Hash()), g, t)
}

// shadowAt returns t's shadow row in group g, whose chain key is key, or
// nil.
func (ps *pruneSpec) shadowAt(key uint64, g *pruneGroupState, t data.Tuple) *shadowRow {
	for row := ps.shadow.first(key); row != nil; row = row.next {
		if row.g == g && row.tuple.Equal(t) {
			return row
		}
	}
	return nil
}

// removeShadow unlinks one shadow row from the spec's chain and its
// group's list, and releases it.
func (ps *pruneSpec) removeShadow(g *pruneGroupState, row *shadowRow) {
	ps.shadow.unlink(row.key, row)
	for p := &g.shadow; *p != nil; p = &(*p).sib {
		if *p == row {
			*p = row.sib
			break
		}
	}
	g.nshadow--
	ps.tbl.held -= size(row.tuple.Args)
	ps.rowSlab.put(row)
}

// dropShadow removes a tuple from its group's shadow (it is being stored
// for real).
func (ps *pruneSpec) dropShadow(g *pruneGroupState, t data.Tuple) {
	if row := ps.findShadow(g, t); row != nil {
		ps.removeShadow(g, row)
	}
}

// RunToFixpoint processes queued tuples until this node has no more local
// work, returning (and clearing) the exports destined to other nodes. The
// returned slice is valid until the engine's next RunToFixpoint or
// CompleteRetract, which reuse its array.
//
// The queue drains in waves: each wave takes the current delta batch,
// evaluates every live entry read-only against the stored tables, and
// then commits the collected firings through emit in batch order; the
// FIFO queue the waves replace processed entries in this same
// breadth-first order. Two visibility edges are pinned down
// deterministically where the FIFO left them to arrival order: a tuple
// derived mid-wave becomes joinable only from the next wave (the
// FIFO exposed it to the remainder of the current batch), and an entry
// primary-key-replaced by an earlier commit of its own wave still
// commits its collected firings (the FIFO fired or skipped it depending
// on queue position). Both orderings are legal semi-naive schedules;
// the waves always pick the same one.
func (e *Engine) RunToFixpoint() []Export {
	// Ping-pong two queue arrays: the batch being drained and the queue
	// the wave's commits fill. A fully-consumed batch array becomes the
	// next wave's queue storage instead of garbage, and the two stay with
	// the engine for the next call.
	spare := e.spareQueue
	for {
		if len(e.evicted.list) > 0 {
			groups := e.evicted.list
			e.evicted = groupSet{}
			e.reviveShadows(groups)
		}
		if len(e.queue) == 0 {
			break
		}
		batch := e.queue
		e.queue = spare
		e.runWave(batch)
		spare = batch[:0]
	}
	// The arrays keep no pointer past their length: a stale entry or
	// export would keep a row's values alive after the table moved them.
	clear(spare[:cap(spare)])
	clear(e.queue[:cap(e.queue)])
	e.spareQueue = spare
	e.compactTables()
	out := e.exports
	clear(out[len(out):cap(out)])
	e.exports = e.exports[:0]
	return out
}

// compactTables compacts every table (compact). It runs where no probe
// is walking a table and no firing holds a row's values: the end of
// RunToFixpoint and of CompleteRetract.
func (e *Engine) compactTables() {
	e.queue = slices.DeleteFunc(e.queue, isDead)
	if e.pend == nil {
		for _, ps := range e.prunes { //provlint:allow mapiter independent per-spec recycling; order cannot escape
			ps.recycle()
		}
	}
	for _, tbl := range e.tables { //provlint:allow mapiter independent per-table compaction; order cannot escape
		e.compact(tbl)
	}
}

// compact compacts tbl once its dead rows are at least as many as its
// live ones, so the rows a retraction or replacement killed do not pile
// up in its order and indexes, and rewrites its storage once it is
// wasteful: the live rows, then the shadow rows of its predicate, are
// copied into fresh storage.
func (e *Engine) compact(tbl *Table) {
	wasteful := tbl.wasteful()
	if tbl.dirty > 0 && (tbl.dirty >= tbl.nlive || wasteful) {
		tbl.compact()
	}
	if !wasteful {
		return
	}
	tbl.renew()
	e.rebind(tbl)
	if ps := e.prunes[tbl.name]; ps != nil {
		for _, row := range ps.shadow.m { //provlint:allow mapiter independent per-row copies; order cannot escape
			for ; row != nil; row = row.next {
				row.tuple = tbl.own(row.tuple)
			}
		}
	}
}

// runWave evaluates one delta batch and commits its firings in order.
// Firings accumulate in the scratch's pending buffer (reused across
// waves); the fired table maps each live entry to its span so the
// commit replay runs in wave order. A buffer regrowth leaves earlier
// spans pointing at the old backing array, whose contents are final —
// the spans stay valid.
func (e *Engine) runWave(batch []*Entry) {
	live := batch[:0]
	for _, en := range batch {
		if !en.Dead {
			live = append(live, en)
		}
	}
	if len(live) == 0 {
		return
	}
	e.Stats.Waves++
	fired := e.firedBuf
	if cap(fired) < len(live) {
		fired = make([][]pending, len(live))
	} else {
		fired = fired[:len(live)]
	}
	sc := e.scratchBuf()
	sc.pend = sc.pend[:0]
	resetValues(&sc.waveVals)
	for i, en := range live {
		s, t := e.evalEntry(en, sc)
		fired[i] = sc.pend[s:t:t]
	}
	for i := range fired {
		for _, p := range fired[i] {
			e.emit(p.r, p.head, p.headHash, p.dest, p.body)
		}
		fired[i] = nil
	}
	e.firedBuf = fired[:0]
	// The firings point into the wave scratch: drop them, so they pin no
	// chunk the slabs have moved past.
	clear(sc.pend)
}

// evalEntry collects the firings of one delta entry (read-only) into the
// scratch's pending buffer, returning the appended span.
func (e *Engine) evalEntry(en *Entry, sc *evalScratch) (int, int) {
	start := len(sc.pend)
	for _, ref := range e.prog.byPred[en.Tuple.Pred] {
		e.evalDelta(ref.rule, ref.atom, en, &sc.pend, sc)
	}
	return start, len(sc.pend)
}

// Pending reports whether the engine has queued work.
func (e *Engine) Pending() bool { return len(e.queue) > 0 }

// emit routes a derived head tuple: local heads are inserted, remote heads
// become exports. Aggregate heads go through contribution accounting
// (their provenance is derived when the aggregate value is emitted, not
// per contribution).
// headHash is head's cached structural hash when known (0 = compute on
// demand).
func (e *Engine) emit(r *compiledRule, head data.Tuple, headHash uint64, dest string, body []AnnTuple) {
	e.Stats.Derivations++
	if e.authenticated {
		head.Asserter = e.self
	}
	if r.agg != nil {
		// Aggregates are computed where the tuples live; a remote
		// aggregate head would need re-aggregation at the destination,
		// which the paper's programs never use. Retraction repairs them
		// group by group (repairAggs), so DRed's re-derivation and the
		// shadow-revival fallback evaluate non-aggregate rules only.
		st := e.aggStateFor(r)
		if g := e.aggContribute(st, head, body); g != nil {
			e.maybeEmitAgg(st, g)
		}
		return
	}
	if e.rederive != nil {
		// DRed re-derivation: only tuples deleted by the current
		// retraction batch are re-established, and only exports whose
		// withdrawal already shipped are re-sent; everything else is
		// still stored (locally or at dest) and must not re-propagate.
		if dest == e.self {
			if !e.rederive.deleted.has("", head) {
				clear(body)
				return
			}
		} else {
			if !e.rederive.shipped.remove(dest, head) {
				clear(body)
				return
			}
			// Fall through: the export re-establishes the tuple at dest.
		}
	}
	ann := e.hook.Derive(r.label, e.self, head, body)
	// Nothing keeps a non-aggregate body after Derive: the copy shares
	// its slab chunk with the bodies aggregate groups keep, and must not
	// keep the rows' values alive with them.
	clear(body)
	if dest == e.self {
		e.insert(head, ann, support{local: true}, headHash, true)
		return
	}
	e.exports = append(e.exports, Export{Dest: dest, Tuple: head, Ann: ann})
}

// Tuples returns the live tuples of a predicate, sorted for determinism.
func (e *Engine) Tuples(pred string) []data.Tuple {
	tbl, ok := e.tables[pred]
	if !ok {
		return nil
	}
	out := tbl.Live(e.now)
	data.SortTuples(out)
	return out
}

// Count returns the number of live tuples of a predicate.
func (e *Engine) Count(pred string) int {
	tbl, ok := e.tables[pred]
	if !ok {
		return 0
	}
	return tbl.LiveCount(e.now)
}

// Has reports whether the exact tuple is currently stored and live.
func (e *Engine) Has(t data.Tuple) bool { return e.storedLive(t) }

// storedLive reports whether the exact tuple is stored and unexpired.
func (e *Engine) storedLive(t data.Tuple) bool {
	tbl, ok := e.tables[t.Pred]
	if !ok {
		return false
	}
	en := tbl.Get(t)
	return en != nil && !en.Dead && !en.expired(e.now)
}

// Lookup finds the stored row equal to t with one table probe. It returns
// the row's own tuple (the canonical stored copy, never the caller's t),
// its annotation, and whether the row is live and unexpired; all zero
// when no such row is stored.
func (e *Engine) Lookup(t data.Tuple) (canonical data.Tuple, ann Annotation, live bool) {
	tbl, ok := e.tables[t.Pred]
	if !ok {
		return data.Tuple{}, nil, false
	}
	en := tbl.Get(t)
	if en == nil || en.expired(e.now) {
		return data.Tuple{}, nil, false
	}
	return en.Tuple, en.Ann, true
}

// AnnotationOf returns the annotation of a stored tuple, or nil.
func (e *Engine) AnnotationOf(t data.Tuple) Annotation {
	tbl, ok := e.tables[t.Pred]
	if !ok {
		return nil
	}
	if entry := tbl.Get(t); entry != nil && !entry.Dead {
		return entry.Ann
	}
	return nil
}

// ShadowSize reports the total number of prune-shadow rows retained
// across every aggregate-selection group — the quantity the per-group
// cap bounds (defaultShadowCap).
func (e *Engine) ShadowSize() int {
	n := 0
	for _, ps := range e.prunes { //provlint:allow mapiter commutative integer sum; order cannot escape
		for _, g := range ps.groups.m { //provlint:allow mapiter commutative integer sum; order cannot escape
			for ; g != nil; g = g.next {
				n += g.nshadow
			}
		}
	}
	return n
}

// TableSlots reports pred's live rows and the slots its table's
// insertion order holds, which count the dead rows not compacted yet.
func (e *Engine) TableSlots(pred string) (live, slots int) {
	if tbl, ok := e.tables[pred]; ok {
		return tbl.nlive, len(tbl.order)
	}
	return 0, 0
}

// rebind points the body tuples the aggregate groups keep that tbl's
// rows gave at those rows' moved values, so the groups keep the old
// storage alive no longer. A body tuple whose row died stays as it is.
func (e *Engine) rebind(tbl *Table) {
	rebind := func(body []AnnTuple) {
		for i := range body {
			if body[i].Tuple.Pred == tbl.name {
				if en := tbl.Get(body[i].Tuple); en != nil {
					body[i].Tuple = en.Tuple
				}
			}
		}
	}
	for _, ref := range e.prog.byPred[tbl.name] {
		st := e.aggState[ref.rule.label]
		if st == nil {
			continue
		}
		for _, g := range st.order {
			for c := g.contribs; c != nil; c = c.after {
				rebind(c.body)
			}
			rebind(g.allBodies)
		}
	}
}

// Moves reports how many times pred's table has rewritten its storage
// (compact). A tuple read from the table before its last move still
// reads the same, but keeps the old storage alive: a reader that keeps
// rows reads them again once the count moves.
func (e *Engine) Moves(pred string) int {
	if tbl, ok := e.tables[pred]; ok {
		return tbl.moves
	}
	return 0
}

// ShadowEvictions reports the cumulative number of shadow rows dropped
// by the per-group cap (defaultShadowCap) since the engine started.
func (e *Engine) ShadowEvictions() int64 {
	var n int64
	for _, ps := range e.prunes { //provlint:allow mapiter commutative integer sum; order cannot escape
		n += ps.evictions
	}
	return n
}

// ArenaHighWater reports the total size, in elements, of the eval
// scratch's current slab chunks (persistent and wave values and
// annotated tuples) and its pending-firing buffer — the memory the hot
// path holds on to between firings.
func (e *Engine) ArenaHighWater() int64 {
	sc := e.scratch
	if sc == nil {
		return 0
	}
	return int64(len(sc.vals.chunk) + len(sc.waveVals.chunk) + len(sc.anns.chunk) + cap(sc.pend))
}

// Predicates returns the names of all tables with live tuples.
func (e *Engine) Predicates() []string {
	var out []string
	for name, tbl := range e.tables { //provlint:allow mapiter collected names are sorted before returning
		if tbl.anyLive(e.now) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Expire advances the clock and kills expired soft state. The rows'
// prune groups and the aggregate groups they fed join the pending
// retraction (lapse), which CompleteRetract repairs: sliding-window
// semantics for aggregates over soft-state tables (§2.1), an emptied
// group's head cascading like a retracted one.
func (e *Engine) Expire(now float64) {
	e.now = now
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gone := e.tables[name].ExpireTuples(now)
		e.Stats.Expired += int64(len(gone))
		data.SortTuples(gone)
		e.lapse(name, gone, true)
	}
	e.compactTables()
}

// lapse runs the bookkeeping of rows that left pred's table without a
// retraction — soft-state expiry or a size bound's eviction. Observers
// hear UpdateExpired (soft-state death, no stale history), and the
// aggregate-selection groups the rows belonged to relax, so shadowed
// candidates compete again instead of being measured against a vanished
// best. An expired row puts its prune group and the aggregate groups it
// fed on the pending retraction. An evicted one, gone inside a wave,
// leaves its prune group to RunToFixpoint's between-wave relax and marks
// the aggregate rules that read it stale. The rows themselves are no
// re-derivation candidates: derived soft state carries its own TTL.
func (e *Engine) lapse(pred string, gone []data.Tuple, expired bool) {
	ps := e.prunes[pred]
	for _, t := range gone {
		e.notify(t, UpdateExpired)
		switch {
		case ps == nil:
		case expired:
			e.startRetract().groups.touch(ps, ps.group(t))
		default:
			e.evicted.touch(ps, ps.group(t))
		}
		if expired && e.touchAggs(t) {
			e.startRetract().aggs = true
		}
	}
	if !expired && len(gone) > 0 {
		e.staleAggs(pred)
	}
}
