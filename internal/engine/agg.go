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
// tables behave as sliding windows: Expire triggers a full recomputation so
// counts shrink as contributing tuples age out (paper §2.1).
//
// Groups key on the head's structural hash over the group columns
// (colliding groups chain through aggGroup.next and are equality-checked);
// contributions key on the group's hash folded with the body tuples'
// hashes, with the group and tuple-wise equality as the fallback. An
// insertion-ordered group list keeps recomputation diffs deterministic.

// aggGroupState holds one aggregate rule's groups and the contributions
// they have counted.
type aggGroupState struct {
	rule     *compiledRule
	groups   chain[aggGroup]
	order    []*aggGroup
	contribs chain[contribution]

	slab        slab[aggGroup]
	contribSlab slab[contribution]
}

// contribution is one body combination a group has counted.
type contribution struct {
	g    *aggGroup
	body []AnnTuple
	next *contribution // the next contribution with the same hash
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
}

func (g *aggGroup) link() **aggGroup { return &g.next }

func (e *Engine) aggStateFor(r *compiledRule) *aggGroupState {
	st, ok := e.aggState[r.label]
	if !ok {
		st = &aggGroupState{rule: r}
		st.reset()
		e.aggState[r.label] = st
		// Head tables of aggregate rules are keyed by the group columns
		// so a changed aggregate replaces the old row.
		e.SetTableKeys(r.headPred, append([]int{}, r.agg.groupIdx...))
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

// reset empties the state for a recomputation. Its slabs start afresh
// too, so a chunk dies with the groups and contributions it held.
func (st *aggGroupState) reset() {
	*st = aggGroupState{rule: st.rule, groups: newChain((*aggGroup).link), contribs: newChain((*contribution).link)}
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

// aggContribute processes one firing of an aggregate rule.
func (e *Engine) aggContribute(r *compiledRule, head data.Tuple, body []AnnTuple) {
	st := e.aggStateFor(r)
	spec := r.agg

	h := head.HashCols(spec.groupIdx)
	g := findAggGroup(st.groups, h, head.Asserter, head.Args, spec.groupIdx)
	if g == nil {
		// The group outlives the wave, so its arguments come from the
		// persistent slab (contributions run on the driving goroutine).
		groupArgs := e.scratchBuf().vals.take(len(head.Args))
		copy(groupArgs, head.Args)
		g = st.slab.alloc()
		g.hash, g.asserter, g.groupArgs = h, head.Asserter, groupArgs
		st.groups.push(h, g)
		st.order = append(st.order, g)
	}

	// Deduplicate by the contributing body combination. The body slice is
	// this firing's own copy (see fire), so retaining it is safe.
	ch := comboHash(g.hash, body)
	for c := st.contribs.first(ch); c != nil; c = c.next {
		if c.g == g && comboEqual(c.body, body) {
			return
		}
	}
	c := st.contribSlab.alloc()
	c.g, c.body = g, body
	st.contribs.push(ch, c)

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
				g.witnessBodies = append([]AnnTuple{}, body...)
			}
		}
	case datalog.AggMax:
		if !g.hasMinMax || val.Compare(g.max) > 0 {
			g.max = val
			g.hasMinMax = true
			if !e.noProv {
				g.witnessBodies = append([]AnnTuple{}, body...)
			}
		}
	}
	if !e.suppressAggEmit {
		e.maybeEmitAgg(st, g)
	}
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
	// The emitted head's argument slice escapes into the stored table, so
	// it comes from the persistent slab of the commit-stage scratch
	// (emission always runs on the driving goroutine).
	args := e.scratchBuf().vals.take(len(g.groupArgs))
	copy(args, g.groupArgs)
	args[st.rule.agg.argIdx] = val
	head := data.Tuple{Pred: st.rule.headPred, Args: args}
	if e.authenticated {
		head.Asserter = e.self
	}
	bodies := g.witnessBodies
	if st.rule.agg.fn == datalog.AggCount || st.rule.agg.fn == datalog.AggSum {
		bodies = g.allBodies
	}
	ann := e.hook.Derive(st.rule.label, e.self, head, bodies)
	e.insert(head, ann, support{local: true}, 0)
}

// recomputeAggregates rebuilds every aggregate from the live tables after
// soft-state expiry: groups whose support vanished are deleted, counts and
// sums shrink, and changed heads are re-emitted.
func (e *Engine) recomputeAggregates() {
	e.recomputeAggRules(nil, nil)
}

// recomputeAggRules rebuilds aggregates from the live tables. only
// restricts the pass to the named rules (nil = all). Heads whose groups
// vanished are handed to sink when set — the retraction path, which must
// cascade their deletion through the dependency index — and deleted
// directly otherwise (the expiry path). Both diffs walk the groups in
// first-contribution order, so the pass is deterministic.
func (e *Engine) recomputeAggRules(only map[string]bool, sink func(dead data.Tuple)) {
	for _, r := range e.rules {
		if r.agg == nil || (only != nil && !only[r.label]) {
			continue
		}
		st := e.aggStateFor(r)
		oldGroups := st.groups
		oldOrder := st.order
		st.reset()

		// Re-derive all contributions from live state. Contributions feed
		// the fresh group map; emission is deferred until the diff below.
		saved := e.suppressAggEmit
		e.suppressAggEmit = true
		e.evalFull(r)
		e.suppressAggEmit = saved

		tbl := e.table(r.headPred)
		// Delete heads for groups that vanished.
		for _, g := range oldOrder {
			if findAggGroup(st.groups, g.hash, g.asserter, g.groupArgs, r.agg.groupIdx) != nil || !g.emitted {
				continue
			}
			args := make([]data.Value, len(g.groupArgs))
			copy(args, g.groupArgs)
			args[r.agg.argIdx] = g.current
			dead := data.Tuple{Pred: r.headPred, Args: args}
			if e.authenticated {
				dead.Asserter = e.self
			}
			if sink != nil {
				sink(dead)
			} else if en := tbl.Get(dead); en != nil {
				tbl.kill(en)
				e.notify(en.Tuple, UpdateRetracted)
			}
		}
		// Emit fresh or changed groups.
		for _, g := range st.order {
			val := st.aggResult(g)
			if prev := findAggGroup(oldGroups, g.hash, g.asserter, g.groupArgs, r.agg.groupIdx); prev != nil && prev.emitted && prev.current.Equal(val) {
				g.emitted = true
				g.current = val
				continue
			}
			e.maybeEmitAgg(st, g)
		}
	}
}
