package engine

import (
	"fmt"
	"sync/atomic"

	"provnet/internal/data"
)

// pending is one rule firing captured during read-only evaluation,
// awaiting the ordered-commit stage. Capturing firings instead of
// committing them inline is what gives a wave its semantics: evaluation
// never writes, so every delta of the wave joins against the same stored
// state, and the commit replay happens in wave order.
type pending struct {
	r    *compiledRule
	head data.Tuple
	// headHash is head's cached structural hash when the firing reused a
	// stored canonical tuple (0 = unknown).
	headHash uint64
	dest     string
	body     []AnnTuple
}

// evalScratch is the engine's reusable evaluation state: one variable
// environment and trail sized for the largest rule, a probe-value buffer
// sized for the widest precompiled probe, a body buffer for the longest
// rule, and the pending buffer a wave's firings append into. It lives for
// the engine's lifetime, so steady-state evaluation performs no per-delta
// allocation beyond the firings themselves.
type evalScratch struct {
	env   env
	trail []int
	probe []data.Value
	body  []AnnTuple
	pend  []pending
	// args is the stack builtin calls take their arguments from (see
	// evalExpr), and newList hands the lists builtins build out of
	// waveVals.
	args    []data.Value
	newList func(n int) []data.Value

	// vals / anns hand out the head-argument and body-copy slices a
	// firing gives the commit stage that escape (into tables, aggregate
	// state, provenance), and the lists a new head keeps. waveVals /
	// waveAnns hand out those that die once the wave's commit stage
	// consumes them — the lists builtins build (fire copies what a new
	// head keeps), aggregate-rule head arguments (aggContribute copies
	// what it keeps) and, under the null provenance hook, non-aggregate
	// body copies (the dependency index reads them by value and nothing
	// else retains them) — and runWave resets them at each wave boundary.
	vals, waveVals slab[data.Value]
	anns, waveAnns slab[AnnTuple]

	// headBuf is the scratch head-argument buffer a firing constructs
	// into before deciding whether a stored canonical tuple can be reused
	// (grown on demand; sized by the widest head seen).
	headBuf []data.Value
}

// scratchBuf returns the engine's eval scratch, (re)creating it when a
// program load grew the required sizes.
func (e *Engine) scratchBuf() *evalScratch {
	sc := e.scratch
	if sc == nil || len(sc.env.vals) < e.maxVars || len(sc.probe) < e.maxProbe || len(sc.body) < e.maxAtoms {
		sc = &evalScratch{
			env:   env{vals: make([]data.Value, e.maxVars), bound: make([]bool, e.maxVars)},
			probe: make([]data.Value, e.maxProbe),
			body:  make([]AnnTuple, e.maxAtoms),
		}
		sc.newList = sc.waveVals.take
		e.scratch = sc
	}
	return sc
}

// poisonScratch makes resetWave fill what the wave slabs handed out with
// poison instead of zeros, so a value kept past its wave reads wrong
// instead of stale (PoisonScratchForTesting).
var poisonScratch atomic.Bool

// scratchPoison is what a poisoned wave slab holds.
var scratchPoison = data.Str("\x00scratch poison")

// PoisonScratchForTesting makes every engine poison its wave scratch
// when a wave resets it, until restore is called. Tests use it to catch a
// list or body copy that outlives the wave it was built in.
func PoisonScratchForTesting() (restore func()) {
	prev := poisonScratch.Swap(true)
	return func() { poisonScratch.Store(prev) }
}

// resetWave hands the wave slabs out again from their start: nothing
// taken from them in the previous wave is used any more. Under
// PoisonScratchForTesting what they handed out is poisoned, not zeroed;
// every taker overwrites what it takes.
func (sc *evalScratch) resetWave() {
	vals, anns := sc.waveVals.chunk[:sc.waveVals.used], sc.waveAnns.chunk[:sc.waveAnns.used]
	sc.waveVals.reset()
	sc.waveAnns.reset()
	if poisonScratch.Load() {
		for i := range vals {
			vals[i] = scratchPoison
		}
		for i := range anns {
			anns[i] = AnnTuple{Tuple: data.Tuple{Pred: scratchPoison.Str}}
		}
	}
}

// evalDelta collects into sink the firings of rule r with the delta
// entry bound at body atom atomIdx, joining the remaining atoms against
// the stored tables (semi-naive evaluation). The scratch's environment
// is restored (all slots unbound) on return.
func (e *Engine) evalDelta(r *compiledRule, atomIdx int, delta *Entry, sink *[]pending, sc *evalScratch) {
	if !e.ruleActive(r) {
		return
	}
	env := &sc.env
	if e.bindSelf(r, env, &sc.trail) && e.matchAtom(&r.atoms[atomIdx], delta.Tuple, env, &sc.trail) {
		body := sc.clearBody(len(r.atoms))
		body[atomIdx] = AnnTuple{Tuple: delta.Tuple, Ann: delta.Ann, hash: delta.hash}
		e.evalSteps(r, 0, atomIdx, env, body, &sc.trail, sink, sc)
	}
	env.undo(&sc.trail, 0)
}

// evalHead evaluates rule r with its head bound to tuple t at
// destination dest: the head arguments (a constant must match) and the
// destination pre-bind their slots, so the rule's head-bound plan probes
// on them and an assignment to a head variable checks instead of binding.
// Only firings that derive t for dest reach sink. This is DRed's
// re-derivation of one deleted tuple or withdrawn export (retract.go).
func (e *Engine) evalHead(r *compiledRule, dest string, t data.Tuple, sink *[]pending) {
	if !e.ruleActive(r) || len(t.Args) != len(r.headArgs) || t.Asserter != e.asserter() {
		return
	}
	sc := e.scratchBuf()
	env := &sc.env
	if e.bindHead(r, dest, t, env, &sc.trail) {
		e.evalSteps(r, 0, len(r.atoms), env, sc.clearBody(len(r.atoms)), &sc.trail, sink, sc)
	}
	env.undo(&sc.trail, 0)
}

// evalGroup collects into sink the firings of rule r whose heads fall in
// the group that t's arguments at r.groupIdx name (the other arguments
// are not read) and whose asserter is t's: the group columns pre-bind
// their slots, so the rule's group-bound plan probes on them. This is
// the repair of one aggregate group (agg.go) and the revival of one
// aggregate-selection group whose shadow lost candidates (retract.go).
func (e *Engine) evalGroup(r *compiledRule, t data.Tuple, sink *[]pending) {
	if !e.ruleActive(r) || t.Asserter != e.asserter() {
		return
	}
	sc := e.scratchBuf()
	env := &sc.env
	if e.bindSelf(r, env, &sc.trail) && bindGroup(r, t.Args, env, &sc.trail) {
		e.evalSteps(r, 0, r.groupVariant(), env, sc.clearBody(len(r.atoms)), &sc.trail, sink, sc)
	}
	env.undo(&sc.trail, 0)
}

// bindGroup binds rule r's group columns to args (indexed like the head's
// arguments), reporting whether they agree with what is bound already.
func bindGroup(r *compiledRule, args []data.Value, env *env, trail *[]int) bool {
	for _, i := range r.groupIdx {
		if !env.matchPattern(r.headArgs[i], args[i], trail) {
			return false
		}
	}
	return true
}

// asserter is the asserter fire gives every head: this node, or no one.
func (e *Engine) asserter() string {
	if e.authenticated {
		return e.self
	}
	return ""
}

// bindSelf binds r's context and location slots to this node.
func (e *Engine) bindSelf(r *compiledRule, env *env, trail *[]int) bool {
	return (r.ctxSlot < 0 || env.bindOrCheck(r.ctxSlot, data.Str(e.self), trail)) &&
		(r.locSlot < 0 || env.bindOrCheck(r.locSlot, data.Str(e.self), trail))
}

// clearBody returns the scratch body buffer for n atoms, emptied.
func (sc *evalScratch) clearBody(n int) []AnnTuple {
	body := sc.body[:n]
	clear(body)
	return body
}

// bindHead binds the context and location slots, r's head arguments to
// t's and its destination to dest, reporting whether they all agree.
func (e *Engine) bindHead(r *compiledRule, dest string, t data.Tuple, env *env, trail *[]int) bool {
	if !e.bindSelf(r, env, trail) {
		return false
	}
	for i, p := range r.headArgs {
		if !env.matchPattern(p, t.Args[i], trail) {
			return false
		}
	}
	switch {
	case r.headLocIdx >= 0:
		v := t.Args[r.headLocIdx]
		return v.Kind == data.KindString && v.Str == dest
	case r.headDestSet:
		return env.matchPattern(r.headDest, data.Str(dest), trail)
	default:
		return dest == e.self
	}
}

// ruleActive reports whether the rule applies at this node at all.
func (e *Engine) ruleActive(r *compiledRule) bool {
	if r.ctxConst != "" && r.ctxConst != e.self {
		return false
	}
	if r.locConst != "" && r.locConst != e.self {
		return false
	}
	return true
}

// evalSteps walks the rule plan from step si in plan variant v (see
// compiledRule.plans): v < len(atoms) names the delta atom, already bound
// and skipped; a larger v bound the head or the group columns instead,
// and every atom is joined. It only reads
// engine state (tables are probed, never created), and every firing
// goes to sink: no caller commits while a probe walks a bucket. Probes
// follow the rule's precompiled plan: the bound columns and their value
// sources were resolved at compile time, so a probe fills a reused value
// buffer, hashes it and walks the index bucket (or, for a scan, the
// table's order) in place, skipping dead and expired rows — no
// per-probe allocation. matchAtom rejects the rows whose indexed
// columns merely collide on the hash.
func (e *Engine) evalSteps(r *compiledRule, si, v int, env *env, body []AnnTuple, trail *[]int, sink *[]pending, sc *evalScratch) {
	if si == len(r.steps) {
		e.fire(r, env, body, sink, sc)
		return
	}
	st := r.steps[si]
	switch st.kind {
	case stepAtom:
		if st.atom == v {
			e.evalSteps(r, si+1, v, env, body, trail, sink, sc)
			return
		}
		tbl := e.tables[r.atoms[st.atom].pred]
		if tbl == nil {
			return // no table yet: the atom cannot match
		}
		plan := &r.plans[si][v]
		if len(plan.cols) == 0 {
			for _, en := range tbl.order {
				e.joinRow(r, si, v, en, env, body, trail, sink, sc)
			}
			return
		}
		vals := sc.probe[:len(plan.cols)]
		for i, src := range plan.srcs {
			if src.isConst {
				vals[i] = src.constVal
			} else {
				vals[i] = env.vals[src.slot]
			}
		}
		for n := tbl.bucket(plan.slot, plan.cols, data.HashValues(vals)); n != nil; n = n.next {
			e.joinRow(r, si, v, n.en, env, body, trail, sink, sc)
		}
	case stepAssign:
		val, err := evalExpr(st.expr, env, sc)
		if err != nil {
			return // expression failure kills this branch
		}
		mark := len(*trail)
		if env.bindOrCheck(st.assignSlot, val, trail) {
			e.evalSteps(r, si+1, v, env, body, trail, sink, sc)
		}
		env.undo(trail, mark)
	case stepCond:
		val, err := evalExpr(st.expr, env, sc)
		if err != nil || !val.IsTrue() {
			return
		}
		e.evalSteps(r, si+1, v, env, body, trail, sink, sc)
	}
}

// joinRow binds stored row en into the atom of step si and, when it
// matches, walks the rest of the plan.
func (e *Engine) joinRow(r *compiledRule, si, v int, en *Entry, env *env, body []AnnTuple, trail *[]int, sink *[]pending, sc *evalScratch) {
	if en.Dead || en.expired(e.now) {
		return
	}
	atom := r.steps[si].atom
	mark := len(*trail)
	if e.matchAtom(&r.atoms[atom], en.Tuple, env, trail) {
		body[atom] = AnnTuple{Tuple: en.Tuple, Ann: en.Ann, hash: en.hash}
		e.evalSteps(r, si+1, v, env, body, trail, sink, sc)
	}
	env.undo(trail, mark)
}

// matchAtom matches a tuple against an atom spec, binding variables.
// The asserter is matched against the says pattern; atoms without says
// accept only tuples asserted locally (or unattributed).
func (e *Engine) matchAtom(spec *atomSpec, tu data.Tuple, env *env, trail *[]int) bool {
	if tu.Pred != spec.pred || len(tu.Args) != len(spec.args) {
		return false
	}
	if spec.says == nil {
		if tu.Asserter != "" && tu.Asserter != e.self {
			return false
		}
	} else {
		if tu.Asserter == "" {
			return false
		}
		if !env.matchPattern(*spec.says, data.Str(tu.Asserter), trail) {
			return false
		}
	}
	for i, p := range spec.args {
		if !env.matchPattern(p, tu.Args[i], trail) {
			return false
		}
	}
	return true
}

// fire constructs the head tuple from the environment and appends it to
// sink for the caller's ordered-commit stage. The head-argument and
// body-copy slices come from the scratch's slabs (one malloc per chunk,
// not two per firing). A list a builtin built lives in the wave scratch:
// a new head copies the lists of its computed arguments into the
// persistent slab, and a re-derived head keeps the stored row's.
func (e *Engine) fire(r *compiledRule, env *env, body []AnnTuple, sink *[]pending, sc *evalScratch) {
	n := len(r.headArgs)
	if cap(sc.headBuf) < n {
		sc.headBuf = make([]data.Value, n)
	}
	hb := sc.headBuf[:n]
	for i, p := range r.headArgs {
		switch {
		case p.isConst:
			hb[i] = p.constVal
		case p.slot >= 0 && env.bound[p.slot]:
			hb[i] = env.vals[p.slot]
		default:
			return // unbound head variable; Validate prevents this
		}
	}
	head := data.Tuple{Pred: r.headPred, Args: hb, Asserter: e.asserter()}
	// Re-derivations of an already-stored row — the common case in a
	// recursive fixpoint — reuse the stored canonical tuple and its
	// cached hash instead of materializing a fresh argument slice. The
	// lookup is a pure read.
	// Aggregate heads skip it: their aggregate argument holds the
	// per-contribution value, which almost never matches the stored
	// aggregated row, and aggContribute copies what it keeps — so their
	// argument slices can come from the wave slab.
	var headHash uint64
	reused := false
	if r.agg == nil {
		if tbl := e.tables[r.headPred]; tbl != nil {
			if en := tbl.Get(head); en != nil {
				head = en.Tuple
				headHash = en.hash
				reused = true
			}
		}
	}
	if !reused {
		var args []data.Value
		if r.agg != nil {
			args = sc.waveVals.take(n)
		} else {
			args = sc.vals.take(n)
		}
		copy(args, hb)
		for _, i := range r.computed {
			args[i] = sc.persist(args[i])
		}
		head.Args = args
	}

	dest := e.self
	switch {
	case r.headLocIdx >= 0:
		if head.Args[r.headLocIdx].Kind != data.KindString {
			return
		}
		dest = head.Args[r.headLocIdx].Str
	case r.headDestSet:
		var v data.Value
		if r.headDest.isConst {
			v = r.headDest.constVal
		} else if r.headDest.slot >= 0 && env.bound[r.headDest.slot] {
			v = env.vals[r.headDest.slot]
		} else {
			return
		}
		if v.Kind != data.KindString {
			return
		}
		dest = v.Str
	}

	// Copy the body annotation slice: it is reused across branches.
	nb := 0
	for i := range body {
		if body[i].Tuple.Pred != "" {
			nb++
		}
	}
	// Aggregate contributions are retained by the group's dedup state, so
	// they need the persistent slab; under the null provenance hook,
	// non-aggregate bodies die at commit (the dependency index reads them
	// by value) and come from the wave slab instead.
	var bodyCopy []AnnTuple
	if r.agg == nil && e.noProv {
		bodyCopy = sc.waveAnns.take(nb)
	} else {
		bodyCopy = sc.anns.take(nb)
	}
	nb = 0
	for i := range body {
		if body[i].Tuple.Pred != "" {
			bodyCopy[nb] = body[i]
			nb++
		}
	}
	*sink = append(*sink, pending{r: r, head: head, headHash: headHash, dest: dest, body: bodyCopy})
}

// persist returns v with its list, and every list nested in it, copied
// into the persistent value slab.
func (sc *evalScratch) persist(v data.Value) data.Value {
	if v.Kind != data.KindList || len(v.List) == 0 {
		return v
	}
	out := sc.vals.take(len(v.List))
	for i, x := range v.List {
		out[i] = sc.persist(x)
	}
	v.List = out
	return v
}

// String renders a compiled rule briefly (for debugging and error text).
func (r *compiledRule) String() string {
	return fmt.Sprintf("rule %s => %s/%d", r.label, r.headPred, len(r.headArgs))
}
