package engine

import (
	"provnet/internal/data"
	"provnet/internal/datalog"
)

// Aggregate evaluation. A rule with an aggregate head such as
//
//	sp3 spCost(@S,D,min<C>) :- path(@S,D,Z,P,C).
//
// is evaluated incrementally: each body firing contributes the aggregated
// value to its group (deduplicated by the body-tuple combination), and
// whenever a group's result changes the head tuple is (re)emitted with
// primary-key replacement on the group columns. Aggregates over soft-state
// tables behave as sliding windows: the groups expired rows fed are
// recomputed by the same repair a retraction runs, so counts shrink as
// contributing tuples age out (paper §2.1).
//
// Groups key on the head's structural hash over the group columns
// (colliding groups chain through aggGroup.next and are equality-checked);
// contributions key on the group's hash folded with the body tuples'
// hashes, with the group and tuple-wise equality as the fallback. Each
// group also threads its own contributions (contribution.after), and an
// insertion-ordered group list keeps the all-groups recompute
// deterministic.
//
// Repair pays for the groups a deletion touched, not for the table. A
// retracted or expired row is bound into the rule's body atom, with the
// context and location slots bound to this node, and the group columns
// are read off the head (touchAggs): that is the one group the row can
// have fed. repairAggs unlinks each touched group's contributions and
// re-evaluates the rule with its group columns bound (evalGroup), then
// emits the changed head or hands the vanished one to over-deletion. A row whose atom
// leaves a group column unbound touches every group of the rule, which
// then recounts each of its live groups the same way. So does any row of
// a stale rule: a row that leaves a table without a retraction — a
// primary-key replacement or a size-bound eviction — leaves its
// contributions behind until the next all-groups recount of the rules
// that read it. A deletion only shrinks groups, so the recount never
// needs to look for a group the rule has not formed.

// aggGroupState holds one aggregate rule's groups and the contributions
// they have counted.
type aggGroupState struct {
	rule     *compiledRule
	groups   chain[aggGroup]
	order    []*aggGroup
	contribs chain[contribution]

	// touched lists the groups a deletion or expiry may have shrunk, in
	// first-touched order, awaiting repairAggs; all asks it to recompute
	// every group instead. stale marks a rule a body row of which left its
	// table without a retraction.
	touched    []*aggGroup
	all, stale bool
	// dropped counts the groups in order that a repair left without
	// contributions and unlinked; order sheds them once they are half.
	dropped int

	slab        slab[aggGroup]
	contribSlab slab[contribution]
	// vals holds the groups' argument arrays: a group shed goes back to
	// slab with its array, which the next group takes over.
	vals slab[data.Value]
}

// contribution is one body combination a group has counted.
type contribution struct {
	g     *aggGroup
	body  []AnnTuple
	hash  uint64
	next  *contribution // the next contribution with the same hash
	after *contribution // the group's next contribution
}

func (c *contribution) link() **contribution { return &c.next }

type aggGroup struct {
	hash      uint64
	next      *aggGroup // the next group with the same hash
	asserter  string
	groupArgs []data.Value
	count     int64
	sum       float64
	sumIsInt  bool
	sumInt    int64
	min, max  data.Value
	hasMinMax bool
	// Aggregate provenance: min/max heads derive from the bodies that
	// witness the current extremum; count/sum heads derive from every
	// contribution. The emitted head's annotation is computed from these
	// when the aggregate changes.
	witnessBodies []AnnTuple
	allBodies     []AnnTuple
	emitted       bool
	current       data.Value
	// contribs heads the group's own contributions, the latest first.
	contribs *contribution
	// touched: the group is on its state's touched list. dropped: a
	// repair left it without contributions and unlinked it.
	touched, dropped bool
}

func (g *aggGroup) link() **aggGroup { return &g.next }

func (e *Engine) aggStateFor(r *compiledRule) *aggGroupState {
	st, ok := e.aggState[r.label]
	if !ok {
		st = &aggGroupState{rule: r, groups: newChain((*aggGroup).link), contribs: newChain((*contribution).link), vals: newStorage()}
		e.aggState[r.label] = st
		// Head tables of aggregate rules are keyed by the group columns
		// so a changed aggregate replaces the old row.
		e.SetTableKeys(r.headPred, append([]int{}, r.groupIdx...))
	}
	return st
}

// findAggGroup locates the group matching the head's group columns in a
// group chain (nil when absent).
func findAggGroup(c chain[aggGroup], hash uint64, asserter string, args []data.Value, groupIdx []int) *aggGroup {
	for g := c.first(hash); g != nil; g = g.next {
		if g.asserter != asserter {
			continue
		}
		ok := true
		for _, i := range groupIdx {
			if !g.groupArgs[i].Equal(args[i]) {
				ok = false
				break
			}
		}
		if ok {
			return g
		}
	}
	return nil
}

// comboHash folds the body tuples' structural hashes, in order, into
// group hash h: the key of one contribution.
func comboHash(h uint64, body []AnnTuple) uint64 {
	for _, b := range body {
		h = (h ^ b.tupleHash()) * hashPrime
	}
	return h
}

func comboEqual(a []AnnTuple, b []AnnTuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Tuple.Equal(b[i].Tuple) {
			return false
		}
	}
	return true
}

// aggContribute counts one firing of an aggregate rule into its group,
// returning the group, or nil when the firing's body combination was
// counted already.
func (e *Engine) aggContribute(st *aggGroupState, head data.Tuple, body []AnnTuple) *aggGroup {
	spec := st.rule.agg
	h := head.HashCols(st.rule.groupIdx)
	g := findAggGroup(st.groups, h, head.Asserter, head.Args, st.rule.groupIdx)
	if g == nil {
		// The group outlives the wave, so its arguments are copied into
		// the state's own storage.
		g = st.slab.alloc()
		if len(g.groupArgs) != len(head.Args) {
			g.groupArgs = st.vals.take(len(head.Args))
		}
		copy(g.groupArgs, head.Args)
		g.hash, g.asserter = h, head.Asserter
		st.groups.push(h, g)
		st.order = append(st.order, g)
	}

	// Deduplicate by the contributing body combination. The body slice is
	// this firing's own copy (see fire), so retaining it is safe.
	ch := comboHash(g.hash, body)
	for c := st.contribs.first(ch); c != nil; c = c.next {
		if c.g == g && comboEqual(c.body, body) {
			clear(body) // kept by no one, it must keep no row's values alive
			return nil
		}
	}
	c := st.contribSlab.alloc()
	c.g, c.body, c.hash, c.after = g, body, ch, g.contribs
	st.contribs.push(ch, c)
	g.contribs = c

	val := head.Args[spec.argIdx]
	switch spec.fn {
	case datalog.AggCount:
		g.count++
		if !e.noProv {
			g.allBodies = append(g.allBodies, body...)
		}
	case datalog.AggSum:
		if val.Kind == data.KindInt {
			g.sumInt += val.Int
			g.sumIsInt = true
		} else {
			g.sum += val.AsFloat()
		}
		if !e.noProv {
			g.allBodies = append(g.allBodies, body...)
		}
	case datalog.AggMin:
		if !g.hasMinMax || val.Compare(g.min) < 0 {
			g.min = val
			g.hasMinMax = true
			if !e.noProv {
				g.witnessBodies = body
			}
		}
	case datalog.AggMax:
		if !g.hasMinMax || val.Compare(g.max) > 0 {
			g.max = val
			g.hasMinMax = true
			if !e.noProv {
				g.witnessBodies = body
			}
		}
	}
	return g
}

// uncount unlinks every contribution of group g and zeroes its
// aggregate, ahead of a recount from the live tables.
func (st *aggGroupState) uncount(g *aggGroup) {
	for c := g.contribs; c != nil; {
		next := c.after
		// The body's tuples point into their tables' storage: a
		// contribution handed back keeps none alive.
		clear(c.body)
		st.contribs.unlink(c.hash, c)
		st.contribSlab.put(c)
		c = next
	}
	g.contribs = nil
	g.count, g.sum, g.sumIsInt, g.sumInt = 0, 0, false, 0
	g.min, g.max, g.hasMinMax = data.Value{}, data.Value{}, false
	g.witnessBodies, g.allBodies = nil, nil
}

// aggResult returns the group's current aggregate value.
func (st *aggGroupState) aggResult(g *aggGroup) data.Value {
	switch st.rule.agg.fn {
	case datalog.AggCount:
		return data.Int(g.count)
	case datalog.AggSum:
		if g.sumIsInt && g.sum == 0 {
			return data.Int(g.sumInt)
		}
		return data.Float(g.sum + float64(g.sumInt))
	case datalog.AggMin:
		return g.min
	case datalog.AggMax:
		return g.max
	default:
		return data.Value{}
	}
}

// maybeEmitAgg emits the head tuple when the group's aggregate changed.
// The head's provenance derives from the witnessing bodies (min/max) or
// all contributions (count/sum).
func (e *Engine) maybeEmitAgg(st *aggGroupState, g *aggGroup) {
	val := st.aggResult(g)
	if g.emitted && g.current.Equal(val) {
		return
	}
	g.emitted = true
	g.current = val
	// The emitted head is stored, so it is carved from its table's
	// storage.
	head := data.Tuple{Pred: st.rule.headPred, Args: g.groupArgs, Asserter: e.asserter()}
	head = e.table(head.Pred).own(head)
	head.Args[st.rule.agg.argIdx] = val
	bodies := g.witnessBodies
	if st.rule.agg.fn == datalog.AggCount || st.rule.agg.fn == datalog.AggSum {
		bodies = g.allBodies
	}
	ann := e.hook.Derive(st.rule.label, e.self, head, bodies)
	e.insert(head, ann, support{local: true}, 0, true)
}

// touchAggs queues for repair the aggregate groups that row t, deleted
// or expired, can have fed (see the file comment), reporting whether it
// queued anything.
func (e *Engine) touchAggs(t data.Tuple) bool {
	queued := false
	for _, ref := range e.prog.byPred[t.Pred] {
		if ref.rule.agg == nil {
			continue
		}
		st := e.aggState[ref.rule.label]
		if st == nil {
			continue // the rule never fired here
		}
		if st.all {
			queued = true
			continue
		}
		g, all := e.fedGroup(st, ref.atom, t)
		switch {
		case all || g != nil && st.stale:
			st.all = true
		case g == nil:
			continue
		case !g.touched:
			g.touched = true
			st.touched = append(st.touched, g)
		}
		queued = true
	}
	return queued
}

// fedGroup binds row t into body atom atom of st's rule and returns the
// group the firings through it feed: nil when the row does not match the
// atom or the group does not exist, all when the atom leaves a group
// column unbound.
func (e *Engine) fedGroup(st *aggGroupState, atom int, t data.Tuple) (g *aggGroup, all bool) {
	r := st.rule
	if !e.ruleActive(r) {
		return nil, false
	}
	sc := e.scratchBuf()
	env := &sc.env
	defer env.undo(&sc.trail, 0)
	if !e.bindSelf(r, env, &sc.trail) || !e.matchAtom(&r.atoms[atom], t, env, &sc.trail) {
		return nil, false
	}
	n := len(r.headArgs)
	if cap(sc.headBuf) < n {
		sc.headBuf = make([]data.Value, n)
	}
	args := sc.headBuf[:n]
	for _, i := range r.groupIdx {
		switch p := r.headArgs[i]; {
		case p.isConst:
			args[i] = p.constVal
		case p.slot >= 0 && env.bound[p.slot]:
			args[i] = env.vals[p.slot]
		default:
			return nil, true
		}
	}
	head := data.Tuple{Pred: r.headPred, Asserter: e.asserter(), Args: args}
	return findAggGroup(st.groups, head.HashCols(r.groupIdx), head.Asserter, args, r.groupIdx), false
}

// staleAggs marks the aggregate rules reading pred stale: one of its rows
// left the table without a retraction.
func (e *Engine) staleAggs(pred string) {
	for _, ref := range e.prog.byPred[pred] {
		if st := e.aggState[ref.rule.label]; st != nil {
			st.stale = true
		}
	}
}

// repairAggs recounts the queued aggregate groups from the live tables,
// rule by rule in program order, each from its group-bound evaluation:
// the touched groups, or every live group of a rule marked all. The
// firings are collected first and counted after, so no probe walks a
// table a commit changes. A changed group re-emits its head; a group
// left without contributions appends its head to vanished, which
// CompleteRetract cascades through overdelete. It returns vanished.
func (e *Engine) repairAggs(vanished []retractItem) []retractItem {
	for _, r := range e.prog.rules {
		if r.agg == nil {
			continue
		}
		st := e.aggState[r.label]
		if st == nil || !st.all && len(st.touched) == 0 {
			continue
		}
		groups := st.touched
		if st.all {
			groups = st.order
		}
		fired := e.repairBuf[:0]
		for _, g := range groups {
			if !g.dropped {
				st.uncount(g)
				e.evalGroup(r, data.Tuple{Args: g.groupArgs, Asserter: g.asserter}, &fired)
			}
		}
		e.Stats.Derivations += int64(len(fired))
		for _, pd := range fired {
			e.aggContribute(st, pd.head, pd.body)
		}
		clear(fired)
		e.repairBuf = fired[:0]
		for _, g := range groups {
			g.touched = false
			if !g.dropped {
				vanished = e.settleAgg(st, g, vanished)
			}
		}
		clear(st.touched)
		st.touched = st.touched[:0]
		if st.all {
			st.all, st.stale = false, false
		}
		st.shed(len(st.order) / 2)
	}
	return vanished
}

// shed removes the dropped groups from order once they number more than
// keep, handing them back to the slab.
func (st *aggGroupState) shed(keep int) {
	if st.dropped == 0 || st.dropped <= keep {
		return
	}
	live := st.order[:0]
	for _, g := range st.order {
		if g.dropped {
			args := g.groupArgs
			clear(args)
			st.slab.put(g)
			g.groupArgs = args
		} else {
			live = append(live, g)
		}
	}
	clear(st.order[len(live):])
	st.order = live
	st.dropped = 0
}

// settleAgg finishes a recounted group: it re-emits a changed head, or
// unlinks a group left without contributions and appends its head to
// vanished (see repairAggs).
func (e *Engine) settleAgg(st *aggGroupState, g *aggGroup, vanished []retractItem) []retractItem {
	if g.contribs != nil {
		e.maybeEmitAgg(st, g)
		return vanished
	}
	st.groups.unlink(g.hash, g)
	g.dropped = true
	st.dropped++
	if !g.emitted {
		return vanished
	}
	r := st.rule
	args := make([]data.Value, len(g.groupArgs))
	copy(args, g.groupArgs)
	args[r.agg.argIdx] = g.current
	dead := data.Tuple{Pred: r.headPred, Args: args, Asserter: e.asserter()}
	return append(vanished, retractItem{t: dead, mode: retractDeriv})
}
