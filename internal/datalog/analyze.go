package datalog

import (
	"fmt"
)

// Validate checks a program for the safety conditions the engine relies
// on:
//
//   - every head variable (including location, destination, and aggregate
//     variables) is bound in the body;
//   - assignment and condition expressions only reference variables bound
//     by body atoms or earlier assignments;
//   - NDlog rules carry location specifiers on every atom and contain no
//     says; SeNDlog rules have purely local bodies (no @ in body atoms)
//     and export with a head destination;
//   - facts are ground and placed;
//   - every use of a predicate (head, body atom, fact) has the same
//     arity: engine tables are keyed by predicate name alone, so a rule
//     reading another arity would never join.
//
// It returns the first problem found.
func Validate(prog *Program) error {
	arity := map[string]int{}
	use := func(pred string, n, line int) error {
		if a, ok := arity[pred]; ok && a != n {
			return fmt.Errorf("datalog: line %d: %s has %d arguments here and %d elsewhere", line, pred, n, a)
		}
		arity[pred] = n
		return nil
	}
	for _, r := range prog.Rules {
		if err := validateRule(r); err != nil {
			return err
		}
		if err := use(r.Head.Pred, len(r.Head.Args), r.Line); err != nil {
			return err
		}
		for _, l := range r.Body {
			if l.Kind != LitAtom {
				continue
			}
			if err := use(l.Atom.Pred, len(l.Atom.Args), r.Line); err != nil {
				return err
			}
		}
	}
	for _, f := range prog.Facts {
		if f.Node == "" {
			return fmt.Errorf("datalog: line %d: fact %s has no placement", f.Line, f.Tuple)
		}
		if err := use(f.Tuple.Pred, len(f.Tuple.Args), f.Line); err != nil {
			return err
		}
	}
	for _, pr := range prog.Prunes {
		if pr.Pred == "" || pr.Col < 1 || len(pr.KeyCols) == 0 {
			return fmt.Errorf("datalog: invalid aggSelection for %q", pr.Pred)
		}
	}
	return nil
}

func validateRule(r *Rule) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("datalog: line %d: rule %s: %s", r.Line, ruleName(r), fmt.Sprintf(format, args...))
	}

	if len(r.Body) == 0 {
		return fail("empty body")
	}
	atomCount := 0
	bound := map[string]bool{}

	// Context variable (SeNDlog) is bound to the local principal.
	if r.Context != nil {
		if v, ok := r.Context.(Variable); ok {
			if v.Blank() {
				return fail("context cannot be the blank variable")
			}
			bound[v.Name] = true
		}
	}

	// Pass 1: atoms bind their variables regardless of position.
	for _, l := range r.Body {
		if l.Kind != LitAtom {
			continue
		}
		atomCount++
		a := l.Atom
		if r.Context == nil {
			// NDlog rule.
			if a.Says != nil {
				return fail("says requires an At context (SeNDlog)")
			}
			if a.LocIdx < 0 {
				return fail("NDlog body atom %s needs a location specifier", a)
			}
		} else if a.LocIdx >= 0 {
			return fail("SeNDlog body atom %s cannot carry a location specifier", a)
		}
		for _, t := range a.Args {
			if v, ok := t.(Variable); ok && !v.Blank() {
				bound[v.Name] = true
			}
		}
		if a.Says != nil {
			if v, ok := a.Says.(Variable); ok {
				if v.Blank() {
					return fail("says principal cannot be blank")
				}
				bound[v.Name] = true
			}
		}
	}
	if atomCount == 0 {
		return fail("body needs at least one atom")
	}

	// Pass 2: assignments and conditions in order.
	for _, l := range r.Body {
		switch l.Kind {
		case LitAssign:
			for _, v := range exprVars(l.Expr) {
				if !bound[v] {
					return fail("variable %s used before binding in %s", v, l)
				}
			}
			bound[l.AssignVar] = true
		case LitCond:
			for _, v := range exprVars(l.Expr) {
				if !bound[v] {
					return fail("variable %s used before binding in condition %s", v, l)
				}
			}
		}
	}

	// Head checks.
	h := &r.Head
	if r.Context == nil {
		if h.LocIdx < 0 {
			return fail("NDlog head needs a location specifier")
		}
		if h.Dest != nil {
			return fail("NDlog heads use @ on an argument, not a destination suffix")
		}
	} else if h.LocIdx >= 0 {
		return fail("SeNDlog heads use a destination suffix (@Node), not argument location specifiers")
	}
	for i, t := range h.Args {
		v, ok := t.(Variable)
		if !ok {
			continue
		}
		if v.Blank() {
			return fail("blank variable in head")
		}
		if i == h.AggIdx && v.Name == "*" {
			continue // count<*>
		}
		if !bound[v.Name] {
			return fail("head variable %s is unbound", v.Name)
		}
	}
	if h.Dest != nil {
		if v, ok := h.Dest.(Variable); ok {
			if v.Blank() || !bound[v.Name] {
				return fail("destination variable %s is unbound", v.Name)
			}
		}
	}
	if h.HasAgg() {
		if h.AggFunc == AggNone {
			return fail("aggregate without function")
		}
		if h.AggIdx >= len(h.Args) {
			return fail("aggregate index out of range")
		}
	}
	return nil
}

func ruleName(r *Rule) string {
	if r.Label != "" {
		return r.Label
	}
	return r.Head.Pred
}

// exprVars returns the variables referenced by e, in first-appearance
// order.
func exprVars(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	var rec func(Expr)
	rec = func(e Expr) {
		switch x := e.(type) {
		case VarExpr:
			if !seen[x.Name] {
				seen[x.Name] = true
				out = append(out, x.Name)
			}
		case BinExpr:
			rec(x.L)
			rec(x.R)
		case UnaryExpr:
			rec(x.X)
		case CallExpr:
			for _, a := range x.Args {
				rec(a)
			}
		}
	}
	rec(e)
	return out
}

// atomVars returns the variables of a body atom (arguments and says term),
// in first-appearance order.
func atomVars(a *BodyAtom) []string {
	var out []string
	seen := map[string]bool{}
	add := func(t Term) {
		if v, ok := t.(Variable); ok && !v.Blank() && !seen[v.Name] {
			seen[v.Name] = true
			out = append(out, v.Name)
		}
	}
	for _, t := range a.Args {
		add(t)
	}
	if a.Says != nil {
		add(a.Says)
	}
	return out
}

// headVars returns the variables of a head atom, in first-appearance
// order, excluding the count<*> placeholder.
func headVars(h *Atom) []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && name != "*" && name != "_" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, t := range h.Args {
		if v, ok := t.(Variable); ok {
			add(v.Name)
		}
	}
	if h.Dest != nil {
		if v, ok := h.Dest.(Variable); ok {
			add(v.Name)
		}
	}
	return out
}
