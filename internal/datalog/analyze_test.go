package datalog

import (
	"strings"
	"testing"
)

func mustRule(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return prog
}

func TestValidateAcceptsGoodPrograms(t *testing.T) {
	good := []string{
		reachableNDlog,
		reachableSeNDlog,
		`r p(@S,C) :- q(@S,A), C = A + 1.`,
		`r p(@S,min<C>) :- q(@S,C).`,
		`At alice: r p(D)@D :- q(D).`,
	}
	for _, src := range good {
		if err := Validate(mustRule(t, src)); err != nil {
			t.Errorf("Validate(%q): %v", src, err)
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`r p(@S,X) :- q(@S,D).`, "unbound"},                    // head var unbound
		{`r p(@S,D) :- q(@S,A), C = X + 1.`, "before binding"},  // assign uses unbound
		{`r p(@S,D) :- q(@S,D), X > 3.`, "before binding"},      // cond uses unbound
		{`r p(@S,D) :- q(S,D).`, "location specifier"},          // NDlog body without @
		{`r p(S,D) :- q(@S,D).`, "location specifier"},          // NDlog head without @
		{`r p(@S,D) :- W says q(@S,D).`, "says requires"},       // says outside context
		{`At S: r p(S,D) :- q(@S,D).`, "cannot carry"},          // @ inside SeNDlog body
		{`At S: r p(@S,D) :- q(S,D).`, "destination suffix"},    // @ in SeNDlog head arg
		{`r p(@S,_) :- q(@S,D).`, "blank variable in head"},     // blank in head
		{`r p(@S,D) :- C = 1 + 2.`, "at least one atom"},        // no atoms
		{`At S: r p(S,D)@X :- q(S,D).`, "destination variable"}, // unbound dest

		// q read at two arities: one table per predicate, so no join.
		{`r p(@S,D) :- q(@S,D), q(@S,D,C).`, "3 arguments here and 2 elsewhere"},
	}
	for i, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			t.Errorf("case %d: parse error: %v", i, err)
			continue
		}
		err = Validate(prog)
		if err == nil {
			t.Errorf("case %d: Validate(%q) should fail", i, c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.wantSub)
		}
	}
}

func TestExprVars(t *testing.T) {
	prog := mustRule(t, `r p(@S,C) :- q(@S,A,B), C = f_min(A, B + A) * 2.`)
	vars := exprVars(prog.Rules[0].Body[1].Expr)
	if len(vars) != 2 || vars[0] != "A" || vars[1] != "B" {
		t.Errorf("exprVars = %v", vars)
	}
}

func TestAtomVars(t *testing.T) {
	prog := mustRule(t, `At S: r p(S) :- W says q(S, X, X, _, 5).`)
	a := prog.Rules[0].Body[0].Atom
	vars := atomVars(a)
	// S, X (deduped), W — blank and constants excluded.
	if len(vars) != 3 || vars[0] != "S" || vars[1] != "X" || vars[2] != "W" {
		t.Errorf("atomVars = %v", vars)
	}
}

func TestHeadVars(t *testing.T) {
	prog := mustRule(t, `At S: r p(S, D, count<*>)@D :- q(S, D).`)
	vars := headVars(&prog.Rules[0].Head)
	if len(vars) != 2 || vars[0] != "S" || vars[1] != "D" {
		t.Errorf("headVars = %v", vars)
	}
}
