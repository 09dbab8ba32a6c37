package engine

import (
	"fmt"
	"maps"
	"slices"

	"provnet/internal/data"
	"provnet/internal/datalog"
)

// pattern is a compiled term: a constant to check or a variable slot to
// bind. slot -1 is the wildcard (blank variable).
type pattern struct {
	isConst  bool
	constVal data.Value
	slot     int
}

// atomSpec is a compiled body atom.
type atomSpec struct {
	pred string
	args []pattern
	// says is the asserter pattern of "P says pred(...)"; nil restricts
	// matches to locally asserted tuples.
	says *pattern
}

// stepKind discriminates plan steps.
type stepKind uint8

const (
	stepAtom stepKind = iota
	stepAssign
	stepCond
)

// step is one element of the rule's evaluation plan, in body order.
type step struct {
	kind       stepKind
	atom       int   // for stepAtom: index into atoms
	assignSlot int   // for stepAssign
	expr       *expr // for stepAssign and stepCond
}

// aggSpec describes an aggregate head.
type aggSpec struct {
	fn        datalog.AggFunc
	argIdx    int // head arg holding the aggregate result
	countStar bool
}

// compiledRule is an executable rule.
type compiledRule struct {
	label string

	// ctxConst restricts the rule to one principal; ctxSlot pre-binds the
	// context variable to the local principal (-1 if unused).
	ctxConst string
	ctxSlot  int
	// locConst / locSlot handle the single body location of localized
	// NDlog rules the same way.
	locConst string
	locSlot  int

	headPred    string
	headArgs    []pattern
	headLocIdx  int // NDlog destination argument (-1 for SeNDlog rules)
	headDest    pattern
	headDestSet bool
	agg         *aggSpec
	// groupIdx lists the head arguments forming the rule's group: an
	// aggregate's non-aggregate arguments, or the key columns of the
	// aggregate selection that prunes a non-aggregate head (nil when
	// neither applies).
	groupIdx []int
	// computed lists the head arguments an assignment binds, whose lists
	// fire copies out of the wave scratch.
	computed []int

	atoms []atomSpec
	steps []step

	// plans[si][v] is the precompiled index probe of step si in plan
	// variant v, which binds something before the first step: body atom v
	// to a delta row (v < len(atoms), semi-naive evaluation), the head
	// (len(atoms), evalHead) or the group columns (groupVariant,
	// evalGroup). A plan records which columns are bound at that point and
	// where each probe value comes from (a constant or an environment
	// slot). Computed once at compile time; the boundness analysis is
	// exact because reaching a step implies every earlier step bound all
	// of its slots.
	plans [][]probePlan
	// maxProbe is the widest probe across plans, sizing scratch buffers.
	maxProbe int

	nvars int
}

// probePlan is one precompiled index probe: the bound columns, the
// argument patterns their values come from (a constant, or a slot bound
// by then), and the slot of the probed table's index on those columns
// (Program.indexSlot), so the probe looks nothing up by name. Empty cols
// means a full table scan.
type probePlan struct {
	slot int
	cols []int
	srcs []pattern
}

// groupVariant is the plan variant evalGroup follows. An aggregate rule
// is never re-derived through its head, so its group variant takes the
// head's place.
func (cr *compiledRule) groupVariant() int {
	if cr.agg != nil {
		return len(cr.atoms)
	}
	return len(cr.atoms) + 1
}

// buildProbePlans computes cr.plans for every (step, variant)
// combination by static boundness simulation. Compile builds them once
// per network and every node's engine shares them: the plans share one
// backing array, and each probe's columns are sized before they are
// filled.
func buildProbePlans(cr *compiledRule) {
	variants := len(cr.atoms) + 1
	if cr.agg == nil && cr.groupIdx != nil {
		variants++
	}
	all := make([]probePlan, len(cr.steps)*variants)
	cr.plans = make([][]probePlan, len(cr.steps))
	for si := range cr.steps {
		cr.plans[si] = all[si*variants : (si+1)*variants : (si+1)*variants]
	}
	bound := make([]bool, cr.nvars)
	mark := func(slot int) {
		if slot >= 0 {
			bound[slot] = true
		}
	}
	markAtom := func(spec *atomSpec) {
		if spec.says != nil && !spec.says.isConst {
			mark(spec.says.slot)
		}
		for _, p := range spec.args {
			if !p.isConst {
				mark(p.slot)
			}
		}
	}
	probed := func(p pattern) bool { return p.isConst || p.slot >= 0 && bound[p.slot] }
	for v := range variants {
		clear(bound)
		mark(cr.ctxSlot)
		mark(cr.locSlot)
		switch v {
		case cr.groupVariant():
			// evalGroup binds the group columns.
			for _, i := range cr.groupIdx {
				if p := cr.headArgs[i]; !p.isConst {
					mark(p.slot)
				}
			}
		case len(cr.atoms):
			// evalHead binds every head variable and the destination.
			for _, p := range cr.headArgs {
				if !p.isConst {
					mark(p.slot)
				}
			}
			if cr.headDestSet && !cr.headDest.isConst {
				mark(cr.headDest.slot)
			}
		default:
			markAtom(&cr.atoms[v])
		}
		for si, st := range cr.steps {
			switch st.kind {
			case stepAtom:
				if st.atom == v {
					continue
				}
				spec := &cr.atoms[st.atom]
				n := 0
				for _, p := range spec.args {
					if probed(p) {
						n++
					}
				}
				plan := &cr.plans[si][v]
				if n > 0 {
					plan.cols, plan.srcs = make([]int, 0, n), make([]pattern, 0, n)
				}
				for i, p := range spec.args {
					if probed(p) {
						plan.cols = append(plan.cols, i)
						plan.srcs = append(plan.srcs, p)
					}
				}
				if n > cr.maxProbe {
					cr.maxProbe = n
				}
				markAtom(spec)
			case stepAssign:
				mark(st.assignSlot)
			}
		}
	}
}

// Program is a localized program compiled for execution: its rules with
// their probe plans, the index-slot layout the plans and the prunes
// probe, and the declarations tables are configured from. Compile builds
// it once per network and every node's engine shares it (Load): nothing
// writes it after Compile, so the engines of a parallel round read one
// Program at once. What changes at run time — tables, prune groups and
// shadows, aggregate state, scratch — stays with each engine.
type Program struct {
	rules  []*compiledRule
	byPred map[string][]atomRef
	decls  map[string]*datalog.MaterializeDecl
	prunes []pruneDecl
	// slots lists, per predicate, the column sets its table is probed on:
	// a set's position is the slot of its index (Table.indexes).
	slots map[string][][]int
	// maxVars/maxAtoms/maxProbe size an engine's eval scratch for the
	// largest rule.
	maxVars, maxAtoms, maxProbe int
}

// noProgram is what an engine holds before Load: no rules, no
// declarations.
var noProgram = new(Program)

// Compile validates a localized program and compiles it for Load. Rules
// spanning multiple locations are rejected; run datalog.Localize first.
func Compile(prog *datalog.Program) (*Program, error) {
	if err := datalog.Validate(prog); err != nil {
		return nil, err
	}
	p := &Program{
		byPred: make(map[string][]atomRef),
		decls:  maps.Clone(prog.Materialize),
		slots:  make(map[string][][]int),
	}
	for _, pr := range prog.Prunes {
		cols := make([]int, len(pr.KeyCols))
		for i, c := range pr.KeyCols {
			cols[i] = c - 1
		}
		p.prunes = append(p.prunes, pruneDecl{
			pred:    pr.Pred,
			keyCols: cols,
			slot:    p.indexSlot(pr.Pred, cols),
			col:     pr.Col - 1,
			min:     pr.Func == datalog.AggMin,
		})
	}
	for _, r := range prog.Rules {
		if locs := datalog.BodyLocations(r); len(locs) > 1 {
			return nil, fmt.Errorf("engine: rule %s spans locations %v; localize the program first", r.Label, locs)
		}
		var pruneKey []int
		for _, d := range p.prunes { // the last declaration on a predicate holds, as in Load
			if d.pred == r.Head.Pred {
				pruneKey = d.keyCols
			}
		}
		cr, err := compileRule(r, pruneKey)
		if err != nil {
			return nil, err
		}
		p.rules = append(p.rules, cr)
		for si, st := range cr.steps {
			for v := range cr.plans[si] {
				if plan := &cr.plans[si][v]; len(plan.cols) > 0 { // an atom's probe
					plan.slot = p.indexSlot(cr.atoms[st.atom].pred, plan.cols)
				}
			}
		}
		for i, a := range cr.atoms {
			p.byPred[a.pred] = append(p.byPred[a.pred], atomRef{rule: cr, atom: i})
		}
		p.maxVars = max(p.maxVars, cr.nvars)
		p.maxAtoms = max(p.maxAtoms, len(cr.atoms))
		p.maxProbe = max(p.maxProbe, cr.maxProbe)
	}
	return p, nil
}

// indexSlot returns the slot of pred's index on cols, assigning the next
// one to a column set not probed before. Only Compile assigns slots.
func (p *Program) indexSlot(pred string, cols []int) int {
	for slot, c := range p.slots[pred] {
		if slices.Equal(c, cols) {
			return slot
		}
	}
	p.slots[pred] = append(p.slots[pred], cols)
	return len(p.slots[pred]) - 1
}

// compileRule translates a validated, localized rule into executable form.
// pruneKey is the key columns (0-based) of the aggregate selection on
// the rule's head predicate, nil when there is none.
func compileRule(r *datalog.Rule, pruneKey []int) (*compiledRule, error) {
	cr := &compiledRule{
		label:      r.Label,
		ctxSlot:    -1,
		locSlot:    -1,
		headLocIdx: -1,
		headArgs:   make([]pattern, 0, len(r.Head.Args)),
		steps:      make([]step, 0, len(r.Body)),
	}
	if cr.label == "" {
		cr.label = r.Head.Pred
	}

	varSlots := map[string]int{}
	slotOf := func(name string) int {
		if s, ok := varSlots[name]; ok {
			return s
		}
		s := cr.nvars
		cr.nvars++
		varSlots[name] = s
		return s
	}
	pat := func(t datalog.Term) pattern {
		switch x := t.(type) {
		case datalog.Variable:
			if x.Blank() {
				return pattern{slot: -1}
			}
			return pattern{slot: slotOf(x.Name)}
		case datalog.Constant:
			return pattern{isConst: true, constVal: x.Value}
		default:
			return pattern{slot: -1}
		}
	}

	// Context (SeNDlog).
	if r.Context != nil {
		switch x := r.Context.(type) {
		case datalog.Variable:
			cr.ctxSlot = slotOf(x.Name)
		case datalog.Constant:
			cr.ctxConst = x.Value.Str
		}
	}

	// Body.
	locSeen := false
	for _, l := range r.Body {
		switch l.Kind {
		case datalog.LitAtom:
			a := l.Atom
			spec := atomSpec{pred: a.Pred, args: make([]pattern, 0, len(a.Args))}
			for _, t := range a.Args {
				spec.args = append(spec.args, pat(t))
			}
			if a.LocIdx >= 0 {
				// Localized NDlog: record the (single) body location.
				switch x := a.Args[a.LocIdx].(type) {
				case datalog.Variable:
					s := slotOf(x.Name)
					if locSeen && cr.locSlot != s {
						return nil, fmt.Errorf("engine: rule %s: multiple body locations", cr.label)
					}
					cr.locSlot = s
				case datalog.Constant:
					if locSeen && cr.locConst != x.Value.Str {
						return nil, fmt.Errorf("engine: rule %s: multiple body locations", cr.label)
					}
					cr.locConst = x.Value.Str
				}
				locSeen = true
			}
			if a.Says != nil {
				p := pat(a.Says)
				spec.says = &p
			}
			cr.steps = append(cr.steps, step{kind: stepAtom, atom: len(cr.atoms)})
			cr.atoms = append(cr.atoms, spec)
		case datalog.LitAssign:
			cr.steps = append(cr.steps, step{kind: stepAssign, assignSlot: slotOf(l.AssignVar)})
		case datalog.LitCond:
			cr.steps = append(cr.steps, step{kind: stepCond})
		}
	}

	// Head.
	h := &r.Head
	cr.headPred = h.Pred
	cr.headLocIdx = h.LocIdx
	for i, t := range h.Args {
		if i == h.AggIdx {
			if v, ok := t.(datalog.Variable); ok && v.Name == "*" {
				cr.headArgs = append(cr.headArgs, pattern{isConst: true, constVal: data.Int(1)})
				continue
			}
		}
		cr.headArgs = append(cr.headArgs, pat(t))
	}
	for i, p := range cr.headArgs {
		for _, st := range cr.steps {
			if st.kind == stepAssign && !p.isConst && p.slot == st.assignSlot {
				cr.computed = append(cr.computed, i)
				break
			}
		}
	}
	if h.Dest != nil {
		cr.headDest = pat(h.Dest)
		cr.headDestSet = true
	}
	if h.HasAgg() {
		spec := &aggSpec{fn: h.AggFunc, argIdx: h.AggIdx}
		if v, ok := h.Args[h.AggIdx].(datalog.Variable); ok && v.Name == "*" {
			spec.countStar = true
		}
		for i := range h.Args {
			if i != h.AggIdx {
				cr.groupIdx = append(cr.groupIdx, i)
			}
		}
		cr.agg = spec
	} else if len(pruneKey) > 0 && slices.Max(pruneKey) < len(h.Args) {
		cr.groupIdx = pruneKey
	}
	// Expressions compile once every variable has its slot: a delta atom
	// later in the body binds its variables before the steps ahead of it.
	// Steps and body literals correspond one to one.
	for i, l := range r.Body {
		if l.Kind != datalog.LitAtom {
			x := compileExpr(l.Expr, varSlots)
			cr.steps[i].expr = &x
		}
	}
	buildProbePlans(cr)
	return cr, nil
}

// env is a variable binding frame during evaluation.
type env struct {
	vals  []data.Value
	bound []bool
}

// bindOrCheck binds an unbound slot or verifies equality for a bound one;
// it records new bindings on the trail.
func (e *env) bindOrCheck(slot int, v data.Value, trail *[]int) bool {
	if slot < 0 {
		return true
	}
	if e.bound[slot] {
		return e.vals[slot].Equal(v)
	}
	e.vals[slot] = v
	e.bound[slot] = true
	*trail = append(*trail, slot)
	return true
}

// undo unbinds slots recorded after mark.
func (e *env) undo(trail *[]int, mark int) {
	for i := len(*trail) - 1; i >= mark; i-- {
		e.bound[(*trail)[i]] = false
	}
	*trail = (*trail)[:mark]
}

// matchPattern matches one pattern against a value.
func (e *env) matchPattern(p pattern, v data.Value, trail *[]int) bool {
	if p.isConst {
		return p.constVal.Equal(v)
	}
	return e.bindOrCheck(p.slot, v, trail)
}
