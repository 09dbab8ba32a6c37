package engine

import (
	"cmp"
	"slices"

	"provnet/internal/data"
)

// Retraction: the engine half of live link churn. Deleting a base tuple
// (a cut link) must withdraw everything derived from it, across nodes,
// without restarting the computation. The implementation is a
// delete-and-rederive (DRed) variant over the dependency index recorded
// at rule-firing time, split into two phases so the scheduler can drain
// the distributed withdrawal wave before any repair propagates:
//
//   - BeginRetract* (over-delete): walk the cone of influence of the
//     retracted tuples through the dependency index, deleting local
//     heads and collecting Withdrawals for exported ones. The touched
//     state (deleted keys, touched aggregate groups, relaxed prune
//     groups, shipped withdrawals) accumulates on the engine.
//   - CompleteRetract (repair): once no withdrawal is in flight,
//     aggregate-selection groups re-admit the shadow candidates the
//     prune had rejected, every non-aggregate rule re-evaluates with its
//     head bound to each deleted tuple and each withdrawn export it could
//     derive (alternate derivations re-establish survivors locally and
//     re-ship previously withdrawn exports), and each aggregate group a
//     deleted row fed recounts with its group columns bound (agg.go) —
//     heads whose groups vanished cascade back through over-deletion.
//
// The phase split matters in a network: completing a node's repair while
// a neighbor's withdrawal is still in flight briefly revives routes the
// neighbor is about to withdraw (zombie routes), amplifying churn
// traffic. The scheduler (internal/core) ships Begin's withdrawals hop
// by hop until the wave quiesces, then completes every node. The
// single-call forms (RetractFacts, RetractInbound)
// compose both phases for single-engine use.
//
// Cross-node alternate derivations are handled by per-entry support
// tracking (the support each Entry carries): a tuple shipped by two
// senders survives the retraction of one.
//
// All bookkeeping sets are chains keyed on structural hashes and
// settled by Equal along the chain (chain.go), never materialized Key()
// strings.

// Withdrawal is a retraction addressed to another node: a previously
// exported derivation that no longer holds and that the destination must
// now withdraw (losing this node's support for it).
type Withdrawal struct {
	Dest  string
	Tuple data.Tuple
}

// depEntry is one body tuple of the dependency index with the heads its
// firings derived: a list of edges in insertion order, which keeps
// retraction cascades deterministic.
type depEntry struct {
	body        data.Tuple
	hash        uint64
	next        *depEntry // the next entry with the same body hash
	first, last *depEdge
}

func (de *depEntry) link() **depEntry { return &de.next }

// depEdge is one dependency body → (head, dest). Every edge also sits on
// Engine.edges under a mix of its body's and head's hashes, so recording
// a firing again finds the edge there instead of in a per-body set.
type depEdge struct {
	from  *depEntry
	head  data.Tuple
	dest  string
	hash  uint64
	next  *depEdge // the next edge with the same hash
	after *depEdge // from's next edge
}

func (d *depEdge) link() **depEdge { return &d.next }

// edgeHash keys the edge from a body to a head by their hashes.
func edgeHash(body, head uint64) uint64 { return (body*hashPrime ^ head) * hashPrime }

// recordDep notes the dependency edge body → (head, dest) of a rule
// firing, the raw material of retraction cascades. The caller hoists the
// head hash out of the per-body-atom loop; the body AnnTuple usually
// carries its entry's cached hash.
func (e *Engine) recordDep(b AnnTuple, head data.Tuple, headHash uint64, dest string) {
	h := b.tupleHash()
	de := e.findDeps(h, b.Tuple)
	if de == nil {
		de = e.depEntries.alloc()
		de.body, de.hash = b.Tuple, h
		e.deps.push(h, de)
		e.ndeps++
	}
	k := edgeHash(h, headHash)
	for d := e.edges.first(k); d != nil; d = d.next {
		if d.from == de && d.dest == dest && d.head.Equal(head) {
			return
		}
	}
	d := e.depEdges.alloc()
	d.from, d.head, d.dest, d.hash = de, head, dest, k
	e.edges.push(k, d)
	if de.last == nil {
		de.first = d
	} else {
		de.last.after = d
	}
	de.last = d
}

// findDeps returns body tuple t's dependency entry, whose hash is h, or
// nil.
func (e *Engine) findDeps(h uint64, t data.Tuple) *depEntry {
	for de := e.deps.first(h); de != nil; de = de.next {
		if de.body.Equal(t) {
			return de
		}
	}
	return nil
}

// dropDeps removes body tuple t's dependency entry and its edges, handing
// each edge's head and destination to visit (when set) in insertion
// order.
func (e *Engine) dropDeps(t data.Tuple, visit func(head data.Tuple, dest string)) {
	de := e.findDeps(t.Hash(), t)
	if de == nil {
		return
	}
	e.deps.unlink(de.hash, de)
	e.ndeps--
	for d := de.first; d != nil; {
		if visit != nil {
			visit(d.head, d.dest)
		}
		next := d.after
		e.edges.unlink(d.hash, d)
		e.depEdges.put(d)
		d = next
	}
	e.depEntries.put(de)
}

// pairSet is a set of (destination, tuple) pairs: a chain keyed by the
// tuple's hash, settled on the destination and Equal. A set of local
// tuples uses destination "".
type pairSet struct {
	pairs chain[pair]
	slab  slab[pair]
	// first and last thread the pairs in insertion order. A removed
	// pair stays threaded, marked gone, and is not handed out again.
	first, last *pair
	n           int
}

type pair struct {
	dest  string
	t     data.Tuple
	hash  uint64
	next  *pair // the next pair with the same hash
	after *pair // the next pair added
	gone  bool
}

func (p *pair) link() **pair { return &p.next }

func newPairSet() *pairSet { return &pairSet{pairs: newChain((*pair).link)} }

// reset empties the set for reuse: the map keeps its capacity and the
// slab hands its current chunk out again.
func (s *pairSet) reset() {
	clear(s.pairs.m)
	s.slab.reset()
	s.first, s.last, s.n = nil, nil, 0
}

func (s *pairSet) find(h uint64, dest string, t data.Tuple) *pair {
	for p := s.pairs.first(h); p != nil; p = p.next {
		if p.dest == dest && p.t.Equal(t) {
			return p
		}
	}
	return nil
}

func (s *pairSet) has(dest string, t data.Tuple) bool {
	return s.find(t.Hash(), dest, t) != nil
}

// add inserts the pair, reporting whether it was newly added.
func (s *pairSet) add(dest string, t data.Tuple) bool {
	h := t.Hash()
	if s.find(h, dest, t) != nil {
		return false
	}
	p := s.slab.alloc()
	p.dest, p.t, p.hash = dest, t, h
	s.pairs.push(h, p)
	if s.last == nil {
		s.first = p
	} else {
		s.last.after = p
	}
	s.last = p
	s.n++
	return true
}

// remove deletes the pair, reporting whether it was present.
func (s *pairSet) remove(dest string, t data.Tuple) bool {
	p := s.find(t.Hash(), dest, t)
	if p == nil {
		return false
	}
	s.pairs.unlink(p.hash, p)
	p.gone = true
	s.n--
	return true
}

func (s *pairSet) len() int { return s.n }

// addAll adds every pair of o.
func (s *pairSet) addAll(o *pairSet) {
	for p := o.first; p != nil; p = p.after {
		if !p.gone {
			s.add(p.dest, p.t)
		}
	}
}

// withdrawals lists the set's pairs in insertion order: an outbound
// retraction queue, deduplicated by (destination, tuple).
func (s *pairSet) withdrawals() []Withdrawal {
	var out []Withdrawal
	for p := s.first; p != nil; p = p.after {
		if !p.gone {
			out = append(out, Withdrawal{Dest: p.dest, Tuple: p.t})
		}
	}
	return out
}

// retractPending is the over-deletion state accumulated between
// BeginRetract* calls and the CompleteRetract that repairs it.
type retractPending struct {
	// deleted holds the tuples removed from this node's tables, and the
	// shadowed candidates that lost their local support (destination
	// ""), in deletion order: the re-derivation's local candidates.
	deleted *pairSet
	// aggs: some aggregate group lost a contributing row (the groups
	// themselves wait on their aggGroupState, see touchAggs).
	aggs bool
	// groups are the aggregate-selection groups whose installed optimum
	// may have relaxed.
	groups groupSet
	// shipped tracks (dest, tuple) withdrawals handed to the scheduler,
	// in shipping order; a re-derivation during repair re-ships those
	// exports.
	shipped *pairSet
}

// pending returns e.pend, taking the spare when there is none.
func (e *Engine) pending() *retractPending {
	switch {
	case e.pend != nil:
	case e.spare != nil:
		e.pend, e.spare = e.spare, nil
	default:
		e.pend = &retractPending{deleted: newPairSet(), shipped: newPairSet()}
	}
	return e.pend
}

// recycle resets a repaired p and keeps it as the spare.
func (e *Engine) recycle(p *retractPending) {
	p.deleted.reset()
	p.shipped.reset()
	p.aggs = false
	clear(p.groups.list)
	p.groups.list = p.groups.list[:0]
	clear(p.groups.seen)
	e.spare = p
}

// withdrawalSet returns the engine's withdrawal set, emptied.
func (e *Engine) withdrawalSet() *pairSet {
	if e.wq == nil {
		e.wq = newPairSet()
	} else {
		e.wq.reset()
	}
	return e.wq
}

func (p *retractPending) empty() bool {
	return p.deleted.len() == 0 && !p.aggs && len(p.groups.list) == 0
}

// groupSet collects the aggregate-selection groups a deletion, expiry or
// eviction relaxed, in first-touched order.
type groupSet struct {
	list []pruneGroup
	seen map[*pruneGroupState]bool
}

// touch records group g of spec ps as relaxed.
func (s *groupSet) touch(ps *pruneSpec, g *pruneGroupState) {
	if s.seen[g] {
		return
	}
	if s.seen == nil {
		s.seen = make(map[*pruneGroupState]bool)
	}
	s.seen[g] = true
	s.list = append(s.list, pruneGroup{ps: ps, g: g})
}

// retractMode distinguishes which support a retraction removes.
type retractMode uint8

const (
	// retractForce deletes the row outright (explicit fact retraction:
	// CutLink, SetLink, Driver.Retract).
	retractForce retractMode = iota
	// retractDeriv removes the row's local-derivation support (a cascade
	// step); the row survives while remote origins remain.
	retractDeriv
	// retractOrigin removes one remote sender's support (an inbound
	// retraction frame); the row survives while other support remains.
	retractOrigin
)

type retractItem struct {
	t      data.Tuple
	mode   retractMode
	origin string
}

// retractRounds caps the repair's delete/revive/rederive/recompute
// iteration. Real programs converge in a handful of rounds; the cap cuts
// pathological cycles short, leaving an over-deleted state that normal
// re-propagation heals.
const retractRounds = 100

// InboundRetraction is one (sender, tuple) withdrawal received off the
// wire.
type InboundRetraction struct {
	From  string
	Tuple data.Tuple
}

// RetractFacts removes tuples from this node outright — the engine half
// of CutLink/SetLink — cascading through everything derived from them.
// Both phases run back to back; the returned withdrawals must be shipped
// to their destination nodes, which apply them via RetractInbound.
func (e *Engine) RetractFacts(tuples ...data.Tuple) []Withdrawal {
	ws := e.BeginRetractFacts(tuples...)
	return append(ws, e.CompleteRetract()...)
}

// RetractInbound applies a batch of inbound retractions (possibly from
// several senders), running both phases back to back: each tuple loses
// its sender's support and is deleted (with cascade) only when no local
// derivation or other origin still supports it.
func (e *Engine) RetractInbound(items []InboundRetraction) []Withdrawal {
	ws := e.BeginRetractInbound(items)
	return append(ws, e.CompleteRetract()...)
}

// BeginRetractFacts is the over-delete phase for explicit fact
// retraction.
func (e *Engine) BeginRetractFacts(tuples ...data.Tuple) []Withdrawal {
	items := e.work[:0]
	for _, t := range tuples {
		items = append(items, retractItem{t: t, mode: retractForce})
	}
	return e.beginRetract(items)
}

// BeginRetractInbound is the over-delete phase for inbound withdrawals.
func (e *Engine) BeginRetractInbound(items []InboundRetraction) []Withdrawal {
	ri := e.work[:0]
	for _, it := range items {
		ri = append(ri, retractItem{t: it.Tuple, mode: retractOrigin, origin: it.From})
	}
	return e.beginRetract(ri)
}

// HasPendingRetract reports whether over-deleted state awaits
// CompleteRetract.
func (e *Engine) HasPendingRetract() bool {
	return e.pend != nil && !e.pend.empty()
}

func (e *Engine) beginRetract(items []retractItem) []Withdrawal {
	wq := e.withdrawalSet()
	e.overdelete(items, wq)
	e.pend.shipped.addAll(wq)
	return wq.withdrawals()
}

// CompleteRetract runs the repair phase over the accumulated
// over-deletion state: shadow revival, head-bound re-derivation, and
// the touched aggregate groups' recount, iterating while aggregate heads
// keep vanishing. It returns the additional withdrawals those cascades
// produced (to be shipped like Begin's).
func (e *Engine) CompleteRetract() []Withdrawal {
	if e.pend == nil || e.pend.empty() {
		if e.pend != nil {
			e.recycle(e.pend)
			e.pend = nil
		}
		return nil
	}
	wq := e.withdrawalSet()
	var vanished []retractItem
	for round := 0; round < retractRounds; round++ {
		p := e.pend
		e.pend = nil
		if p == nil || p.empty() {
			if p != nil {
				e.recycle(p)
			}
			break
		}
		e.reviveShadows(p.groups.list)
		if p.deleted.len() > 0 {
			e.rederiveDeleted(p)
		}
		vanished = vanished[:0]
		if p.aggs {
			e.repairAggs(&vanished)
		}
		e.recycle(p)
		if len(vanished) > 0 {
			// Cascade the vanished aggregate heads; this may repopulate
			// e.pend for the next repair round.
			e.overdelete(vanished, wq)
			if e.pend != nil {
				e.pend.shipped.addAll(wq)
			}
		}
	}
	// A later repair round's cascade can withdraw a head an earlier
	// round's re-derivation already buffered in e.exports. The buffered
	// export would ship after the withdrawal and resurrect the tuple at
	// the destination with no future withdrawal to remove it — drop any
	// export this repair also decided to withdraw.
	if wq.len() > 0 && len(e.exports) > 0 {
		kept := e.exports[:0]
		for _, ex := range e.exports {
			if !wq.has(ex.Dest, ex.Tuple) {
				kept = append(kept, ex)
			}
		}
		e.exports = kept
	}
	e.compactTables()
	return wq.withdrawals()
}

// pruneGroup pairs an aggregate-selection spec with one of its touched
// groups during a deletion, expiry or eviction.
type pruneGroup struct {
	ps *pruneSpec
	g  *pruneGroupState
}

// overdelete walks the cone of influence of the retraction items,
// deleting unsupported rows and accumulating onto e.pend: the deleted
// tuples, the aggregate groups the deleted rows fed (touchAggs), and the prune
// groups needing a best reset. Withdrawals for exported heads go to wq.
func (e *Engine) overdelete(items []retractItem, wq *pairSet) {
	pend := e.pending()
	work := append(e.work[:0], items...)
	for i := 0; i < len(work); i++ {
		it := work[i]
		t := it.t
		ps := e.prunes[t.Pred]
		tbl, ok := e.tables[t.Pred]
		var en *Entry
		if ok {
			en = tbl.Get(t)
		}
		if en == nil {
			// Not stored: possibly a prune-shadowed candidate; remove the
			// retracted support from the shadow row. Local support is one
			// flag however many local derivations gave it, so a row that
			// loses it becomes a re-derivation candidate like a deleted
			// row: another derivation may still hold.
			if ps != nil && e.retractShadow(ps, t, it) {
				pend.deleted.add("", t)
			}
			continue
		}
		if pend.deleted.has("", t) {
			continue
		}
		switch it.mode {
		case retractForce:
			en.local = false
			en.clearOrigins()
		case retractDeriv:
			en.local = false
		case retractOrigin:
			en.dropOrigin(it.origin)
		}
		if en.supported() {
			continue // other support keeps the row alive
		}
		tbl.kill(en)
		pend.deleted.add("", t)
		e.Stats.Retracted++
		e.notify(en.Tuple, UpdateRetracted)
		if ps != nil {
			// The group hash embeds the predicate (and asserter), so
			// groups never collide across pruned predicates.
			pend.groups.touch(ps, ps.group(t))
		}
		if e.touchAggs(t) {
			pend.aggs = true
		}
		e.dropDeps(t, func(head data.Tuple, dest string) {
			if dest == e.self {
				work = append(work, retractItem{t: head, mode: retractDeriv})
			} else {
				wq.add(dest, head)
			}
		})
	}
	clear(work)
	e.work = work[:0]
}

// retractShadow removes one support source from a prune-shadowed
// candidate, dropping the row when none remains. It reports whether the
// row lost its local support.
func (e *Engine) retractShadow(ps *pruneSpec, t data.Tuple, it retractItem) bool {
	g := ps.findGroup(t)
	if g == nil {
		return false
	}
	row := ps.findShadow(g, t)
	if row == nil {
		return false
	}
	lost := row.local && it.mode != retractOrigin
	switch it.mode {
	case retractForce:
		row.local = false
		row.clearOrigins()
	case retractDeriv:
		row.local = false
	case retractOrigin:
		row.dropOrigin(it.origin)
	}
	if !row.supported() {
		ps.removeShadow(g, row)
		ps.maybeDrop(g)
	}
	return lost
}

// reviveShadows resets the installed best of every touched prune group
// from the surviving rows and re-admits the group's shadow candidates,
// which re-enter the normal insert path (and the evaluation queue) now
// that the bar they failed against is gone. Groups process in a
// deterministic order (predicate, asserter, group values); groups is
// sorted in place.
func (e *Engine) reviveShadows(groups []pruneGroup) {
	slices.SortFunc(groups, comparePruneGroups)
	for _, pg := range groups {
		ps, g := pg.ps, pg.g
		// Recompute the group's best over surviving live rows. The probe
		// matches on the group columns' hash; filter to the exact group
		// (the group identity also covers the asserter, as insert's
		// grouping does).
		g.hasBest = false
		g.best = data.Value{}
		if tbl, ok := e.tables[ps.pred]; ok {
			for n := tbl.bucket(ps.slot, ps.keyCols, data.HashValues(g.vals)); n != nil; n = n.next {
				en := n.en
				if en.Dead || en.expired(e.now) || !g.matches(en.Tuple, ps.keyCols) {
					continue
				}
				val := en.Tuple.Args[ps.col]
				if !g.hasBest || (ps.min && val.Compare(g.best) < 0) || (!ps.min && val.Compare(g.best) > 0) {
					g.best = val
					g.hasBest = true
				}
			}
		}
		if g.nshadow > 0 {
			revived := e.revived[:0]
			for row := g.shadow; row != nil; {
				sib := row.sib
				ps.shadow.unlink(row.key, row)
				revived = append(revived, *row)
				ps.rowSlab.put(row)
				row = sib
			}
			g.shadow, g.nshadow = nil, 0
			// Revive best-first (by the pruned column, then
			// data.CompareTuples for determinism): the winning candidate installs immediately
			// and re-shadows the rest, instead of storing and
			// re-propagating a whole improving sequence.
			slices.SortFunc(revived, func(a, b shadowRow) int {
				if c := a.tuple.Args[ps.col].Compare(b.tuple.Args[ps.col]); c != 0 {
					if ps.min {
						return c
					}
					return -c
				}
				return data.CompareTuples(a.tuple, b.tuple)
			})
			for _, row := range revived {
				e.insert(row.tuple, row.ann, row.support, 0)
			}
			clear(revived)
			e.revived = revived[:0]
		}
		if g.lossy {
			// The bounded shadow evicted candidates from this group: what
			// survives in the shadow is not the full alternative set, so
			// re-derive the group's candidates from live state and let the
			// prune re-rank them.
			g.lossy = false
			e.rederiveGroup(pg)
		}
		ps.maybeDrop(g)
	}
}

// comparePruneGroups orders touched prune groups by predicate, asserter
// and group values.
func comparePruneGroups(a, b pruneGroup) int {
	if c := cmp.Compare(a.ps.pred, b.ps.pred); c != 0 {
		return c
	}
	if c := cmp.Compare(a.g.asserter, b.g.asserter); c != 0 {
		return c
	}
	for k := range min(len(a.g.vals), len(b.g.vals)) {
		if c := a.g.vals[k].Compare(b.g.vals[k]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a.g.vals), len(b.g.vals))
}

// rederiveGroup is the shadow-eviction revival fallback: every
// non-aggregate rule producing the pruned predicate re-evaluates with
// group g bound (evalGroup), and the firings addressed to this node
// re-enter the insert path, where each candidate installs or
// re-shadows. A firing addressed to another node is still stored or
// already shipped there: it counts as a derivation and goes no further.
// It runs serially — eviction-miss revivals are rare — and
// deterministically.
func (e *Engine) rederiveGroup(pg pruneGroup) {
	args := make([]data.Value, slices.Max(pg.ps.keyCols)+1)
	for k, c := range pg.ps.keyCols {
		args[c] = pg.g.vals[k]
	}
	group := data.Tuple{Args: args, Asserter: pg.g.asserter}
	fired := e.repairBuf[:0]
	for _, r := range e.rules {
		if r.agg == nil && r.headPred == pg.ps.pred {
			e.evalGroup(r, group, &fired)
		}
	}
	for _, pd := range fired {
		if pd.dest == e.self {
			e.emit(pd.r, pd.head, pd.headHash, pd.dest, pd.body)
		} else {
			e.Stats.Derivations++
		}
	}
	clear(fired)
	e.repairBuf = fired[:0]
}

// addShadowRow records a prune-rejected candidate for possible revival,
// merging support when the same tuple is rejected repeatedly.
func (ps *pruneSpec) addShadowRow(g *pruneGroupState, t data.Tuple, ann Annotation, sup support) {
	key := shadowKey(g, t.Hash())
	if row := ps.shadowAt(key, g, t); row != nil {
		row.add(sup)
		return
	}
	row := ps.rowSlab.alloc()
	row.tuple, row.ann, row.support = t, ann, sup
	row.g, row.key, row.sib = g, key, g.shadow
	ps.shadow.push(key, row)
	g.shadow = row
	g.nshadow++
	ps.enforceCap(g)
}

// rederiveDeleted is DRed's re-derivation phase over the over-deleted
// tuples only, as Gupta, Mumick and Subrahmanian define it: each
// non-aggregate rule evaluates with its head bound to every candidate of
// its head predicate (evalHead). The candidates are the tuples deleted
// here (destination self) and the withdrawn exports still shipped (their
// destination), bucketed by predicate once. A candidate with an
// alternate derivation is re-established (and queued, so downstream
// consequences re-propagate) or re-shipped to its destination.
//
// The phase has RunToFixpoint's wave shape: every rule is evaluated
// read-only against the over-deleted tables first, then the collected
// firings commit in rule order, then candidate order, under the rederive
// filter, which stays the authority on what re-enters. No rule sees
// another's repairs mid-phase.
func (e *Engine) rederiveDeleted(p *retractPending) {
	if e.cands == nil {
		e.cands = make(map[string][]*pair)
	}
	cands := e.cands
	for pred, cs := range cands { //provlint:allow mapiter truncating every bucket; order cannot escape
		clear(cs)
		cands[pred] = cs[:0]
	}
	for _, set := range []*pairSet{p.deleted, p.shipped} {
		for c := set.first; c != nil; c = c.after {
			if !c.gone {
				cands[c.t.Pred] = append(cands[c.t.Pred], c)
			}
		}
	}
	fired := e.repairBuf[:0]
	for _, r := range e.rules {
		if r.agg != nil {
			continue
		}
		for _, c := range cands[r.headPred] {
			dest := c.dest
			if dest == "" {
				dest = e.self
			}
			e.evalHead(r, dest, c.t, &fired)
		}
	}
	e.rederive = p
	for _, pd := range fired {
		e.emit(pd.r, pd.head, pd.headHash, pd.dest, pd.body)
	}
	e.rederive = nil
	clear(fired)
	e.repairBuf = fired[:0]
}
