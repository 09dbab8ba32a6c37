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

	tables map[string]*Table
	decls  map[string]*datalog.MaterializeDecl
	prunes map[string]*pruneSpec

	rules    []*compiledRule
	byPred   map[string][]atomRef
	aggState map[string]*aggGroupState // keyed by rule label + group key
	// slots lists, per predicate, the column sets its table is probed on:
	// a set's position is the slot of its index (Table.indexes), fixed
	// when the rules that probe it compile.
	slots map[string][][]int

	// queue is the delta awaiting evaluation and spareQueue the drained
	// batch array RunToFixpoint fills next; exports collects the remote
	// heads RunToFixpoint returns, its array reused by the next call.
	queue, spareQueue []*Entry
	exports           []Export

	// deps is the derivation dependency index driving retraction: for
	// every non-aggregate rule firing it maps each body tuple (keyed by
	// structural hash, colliding entries chained through depEntry.next)
	// to the derived heads (with their destinations), so a deleted tuple's
	// cone of influence can be walked without re-running rules. edges
	// holds every body → head edge once (see depEdge).
	deps  chain[depEntry]
	edges chain[depEdge]
	ndeps int

	depEntries slab[depEntry]
	depEdges   slab[depEdge]

	// scratch is the reusable evalScratch; firedBuf is the reused
	// per-wave firing table. maxVars/maxAtoms/maxProbe are the scratch
	// sizes required by the loaded rules.
	scratch  *evalScratch
	firedBuf [][]pending
	maxVars  int
	maxAtoms int
	maxProbe int

	// pend accumulates over-deletion state between BeginRetract* and the
	// CompleteRetract that repairs it (see retract.go). spare is a repaired
	// one, reset, and wq the withdrawal set, both kept for the next
	// retraction instead of allocated anew. work is over-deletion's queue,
	// cands the re-derivation's candidates by predicate, repairBuf a
	// repair's firings and revived a shadow revival's rows, each reused.
	pend      *retractPending
	spare     *retractPending
	wq        *pairSet
	work      []retractItem
	cands     map[string][]*pair
	repairBuf []pending
	revived   []shadowRow
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
}

// atomRef locates a body atom within a compiled rule.
type atomRef struct {
	rule *compiledRule
	atom int // index into rule.atoms
}

// pruneSpec is one aggregate-selection declaration. Groups are keyed by
// the structural hash of the group columns, colliding groups chained
// through pruneGroupState.next (which holds the identity for the
// equality check); each group carries its installed best, its shadow of
// rejected candidates, and its lossy flag in one place instead of three
// parallel string-keyed maps. The shadow rows of all groups share one
// chain, keyed by the group's hash folded with the row's.
type pruneSpec struct {
	pred    string
	keyCols []int
	// slot is the index on keyCols, with which a revival probes the
	// group's surviving rows.
	slot int
	col  int
	min  bool
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
	// its removal.
	groupSlab slab[pruneGroupState]
	valSlab   slab[data.Value]
	rowSlab   slab[shadowRow]
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
	g.hash, g.asserter, g.vals = h, t.Asserter, ps.valSlab.take(len(ps.keyCols))
	for i, c := range ps.keyCols {
		g.vals[i] = t.Args[c]
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
// the spec so long-churning runs do not accumulate dead group states.
func (ps *pruneSpec) maybeDrop(g *pruneGroupState) {
	if g.hasBest || g.nshadow > 0 || g.lossy {
		return
	}
	ps.groups.unlink(g.hash, g)
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
		tables:        make(map[string]*Table),
		decls:         make(map[string]*datalog.MaterializeDecl),
		prunes:        make(map[string]*pruneSpec),
		byPred:        make(map[string][]atomRef),
		aggState:      make(map[string]*aggGroupState),
		slots:         make(map[string][][]int),
		deps:          newChain((*depEntry).link),
		edges:         newChain((*depEdge).link),
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

// LoadProgram compiles a localized, validated program into the engine.
// Rules spanning multiple locations are rejected; run datalog.Localize
// first.
func (e *Engine) LoadProgram(prog *datalog.Program) error {
	if err := datalog.Validate(prog); err != nil {
		return err
	}
	for pred, d := range prog.Materialize { //provlint:allow mapiter map-to-map copy of declarations; order cannot escape
		e.decls[pred] = d
	}
	for _, pr := range prog.Prunes {
		cols := make([]int, len(pr.KeyCols))
		for i, c := range pr.KeyCols {
			cols[i] = c - 1
		}
		e.prunes[pr.Pred] = &pruneSpec{
			pred:    pr.Pred,
			keyCols: cols,
			slot:    e.indexSlot(pr.Pred, cols),
			col:     pr.Col - 1,
			min:     pr.Func == datalog.AggMin,
			cap:     defaultShadowCap,
			groups:  newChain((*pruneGroupState).link),
			shadow:  newChain((*shadowRow).link),
		}
	}
	for _, r := range prog.Rules {
		if locs := datalog.BodyLocations(r); len(locs) > 1 {
			return fmt.Errorf("engine: rule %s spans locations %v; localize the program first", r.Label, locs)
		}
		var pruneKey []int
		if ps := e.prunes[r.Head.Pred]; ps != nil {
			pruneKey = ps.keyCols
		}
		cr, err := compileRule(r, pruneKey)
		if err != nil {
			return err
		}
		e.rules = append(e.rules, cr)
		for si, st := range cr.steps {
			for v := range cr.plans[si] {
				if plan := &cr.plans[si][v]; len(plan.cols) > 0 { // an atom's probe
					plan.slot = e.indexSlot(cr.atoms[st.atom].pred, plan.cols)
				}
			}
		}
		for i, a := range cr.atoms {
			e.byPred[a.pred] = append(e.byPred[a.pred], atomRef{rule: cr, atom: i})
		}
		if cr.nvars > e.maxVars {
			e.maxVars = cr.nvars
		}
		if len(cr.atoms) > e.maxAtoms {
			e.maxAtoms = len(cr.atoms)
		}
		if cr.maxProbe > e.maxProbe {
			e.maxProbe = cr.maxProbe
		}
	}
	return nil
}

// indexSlot returns the slot of pred's index on cols, assigning the next
// one to a column set not probed before.
func (e *Engine) indexSlot(pred string, cols []int) int {
	for slot, c := range e.slots[pred] {
		if slices.Equal(c, cols) {
			return slot
		}
	}
	e.slots[pred] = append(e.slots[pred], cols)
	return len(e.slots[pred]) - 1
}

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
	if d, ok := e.decls[pred]; ok {
		for _, c := range d.KeyCols {
			keyCols = append(keyCols, c-1)
		}
		ttl = d.TTLSeconds
		maxSize = d.MaxSize
	}
	t = NewTable(pred, keyCols, ttl, maxSize)
	e.tables[pred] = t
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
// carries an asserter.
func (e *Engine) InsertFact(t data.Tuple) {
	if e.authenticated && t.Asserter == "" {
		t.Asserter = e.self
	}
	e.insert(t, e.hook.Base(t), support{local: true}, 0)
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
	e.insert(t, ann, supportFrom(from), 0)
	return nil
}

// InsertImportedAnnFrom inserts a received tuple whose annotation the
// caller already reconstructed — the network layer decodes every
// annotation of a frame (one provenance table for all of them, under
// condensed provenance) before it inserts any — with the sender recorded
// as support origin. Like every insert it only queues the tuple: the
// whole delta is processed by the next RunToFixpoint.
func (e *Engine) InsertImportedAnnFrom(from string, t data.Tuple, ann Annotation) {
	e.insert(t, ann, supportFrom(from), 0)
}

// insert stores a tuple and queues it for semi-naive processing: the one
// place a tuple enters a table. It applies the aggregate-selection prune
// and primary-key replacement. sup is the support being applied: one
// source on the per-tuple path (a local one, or one remote sender), and
// everything a candidate accumulated in the shadow when it is revived.
// hash is t's cached structural hash when known (0 = compute on demand).
func (e *Engine) insert(t data.Tuple, ann Annotation, sup support, hash uint64) {
	// Aggregate selection: drop tuples that do not improve their group.
	// A tuple identical to a stored live row bypasses the prune and takes
	// the duplicate path below instead: shadowing a stored tuple would
	// leave a copy of it in the shadow, and a later retraction of the row
	// would resurrect it from its own shadow entry (and the re-insert
	// must refresh the row's TTL and merge its support, which the shadow
	// never did).
	if ps, ok := e.prunes[t.Pred]; ok && !e.storedLive(t) {
		g := ps.group(t)
		val := t.Args[ps.col]
		if g.hasBest {
			c := val.Compare(g.best)
			if (ps.min && c >= 0) || (!ps.min && c <= 0) {
				e.Stats.TuplesDropped++
				ps.addShadowRow(g, t, ann, sup)
				return
			}
		}
		g.best = val
		g.hasBest = true
		ps.dropShadow(g, t)
	}

	tbl := e.table(t.Pred)
	entry, replaced, status := tbl.insertHashed(t, ann, e.now, hash)
	entry.support.add(sup)
	switch status {
	case InsertNew, InsertReplaced:
		e.Stats.TuplesStored++
		e.queue = append(e.queue, entry)
		if replaced != nil {
			e.notify(replaced.Tuple, UpdateRetracted)
			e.staleAggs(replaced.Tuple.Pred)
		}
		e.notify(t, UpdateAdded)
		if status == InsertNew {
			e.lapse(t.Pred, tbl.evict(), &e.evicted, false)
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
	e.spareQueue = spare
	e.compactTables()
	out := e.exports
	e.exports = e.exports[:0]
	return out
}

// compactTables compacts every table whose dead rows are at least as many
// as its live ones, so the rows a retraction or replacement killed do not
// pile up in its order and indexes. It runs where no probe is walking a
// table: the end of RunToFixpoint and of CompleteRetract.
func (e *Engine) compactTables() {
	for _, tbl := range e.tables { //provlint:allow mapiter independent per-table compaction; order cannot escape
		if tbl.dirty > 0 && tbl.dirty >= tbl.nlive {
			tbl.compact()
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
	sc.resetWave()
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
	for _, ref := range e.byPred[en.Tuple.Pred] {
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
	// Record the dependency edges body → head for retraction cascades.
	// The head hash is shared by every edge.
	if len(body) > 0 {
		if headHash == 0 {
			headHash = head.Hash()
		}
		for i := range body {
			e.recordDep(body[i], head, headHash, dest)
		}
	}
	if e.rederive != nil {
		// DRed re-derivation: only tuples deleted by the current
		// retraction batch are re-established, and only exports whose
		// withdrawal already shipped are re-sent; everything else is
		// still stored (locally or at dest) and must not re-propagate.
		if dest == e.self {
			if !e.rederive.deleted.has("", head) {
				return
			}
		} else {
			if !e.rederive.shipped.remove(dest, head) {
				return
			}
			// Fall through: the export re-establishes the tuple at dest.
		}
	}
	ann := e.hook.Derive(r.label, e.self, head, body)
	if dest == e.self {
		e.insert(head, ann, support{local: true}, headHash)
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

// DepSize reports the number of body tuples in the retraction
// dependency index — the structure Expire must purge alongside tables.
func (e *Engine) DepSize() int { return e.ndeps }

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
	return int64(len(sc.vals.chunk) + len(sc.waveVals.chunk) +
		len(sc.anns.chunk) + len(sc.waveAnns.chunk) + cap(sc.pend))
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

// Expire advances the clock and removes expired soft-state, then
// recounts the aggregate groups the expired rows fed (sliding-window
// semantics for aggregates over soft-state tables, §2.1). Expired rows
// go through lapse.
func (e *Engine) Expire(now float64) {
	e.now = now
	expired := 0
	var relax groupSet
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gone := e.tables[name].ExpireTuples(now)
		expired += len(gone)
		data.SortTuples(gone)
		e.lapse(name, gone, &relax, true)
	}
	e.Stats.Expired += int64(expired)
	if len(relax.list) > 0 {
		e.reviveShadows(relax.list)
	}
	if expired > 0 {
		e.repairAggs(nil)
	}
}

// lapse runs the bookkeeping of rows that left pred's table without a
// retraction — soft-state expiry or a size bound's eviction. Observers
// hear UpdateExpired (soft-state death, no stale history). The rows'
// dependency-index entries are purged: they drove the cascade walk, and
// leaving them would leak memory on long soft-state runs and let a later
// BeginRetract walk dependents through tuples that no longer exist. The
// aggregate-selection groups the rows belonged to go into relax, so
// shadowed candidates compete again instead of being measured against a
// vanished best. An expired row queues the aggregate groups it fed for
// Expire's recount; an evicted one marks the aggregate rules that read it
// stale. Unlike a retraction, nothing cascades: derived soft state
// carries its own TTL.
func (e *Engine) lapse(pred string, gone []data.Tuple, relax *groupSet, expired bool) {
	ps := e.prunes[pred]
	for _, t := range gone {
		e.notify(t, UpdateExpired)
		e.dropDeps(t, nil)
		if ps != nil {
			relax.touch(ps, ps.group(t))
		}
		if expired {
			e.touchAggs(t)
		}
	}
	if !expired && len(gone) > 0 {
		e.staleAggs(pred)
	}
}
