package datalog

import (
	"strings"
	"testing"

	"provnet/internal/data"
)

const reachableNDlog = `
r1 reachable(@S,D) :- link(@S,D).
r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
`

const reachableSeNDlog = `
At S:
  s1 reachable(S,D) :- link(S,D).
  s2 linkD(D,S)@D :- link(S,D).
  s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).
`

func TestParseReachableNDlog(t *testing.T) {
	prog, err := Parse(reachableNDlog)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
	r1 := prog.Rules[0]
	if r1.Label != "r1" || r1.Head.Pred != "reachable" || r1.Head.LocIdx != 0 {
		t.Errorf("r1 = %s", r1)
	}
	if r1.IsSeNDlog() {
		t.Error("r1 should be NDlog")
	}
	if len(r1.Body) != 1 || r1.Body[0].Atom.Pred != "link" || r1.Body[0].Atom.LocIdx != 0 {
		t.Errorf("r1 body = %v", r1.Body)
	}
	r2 := prog.Rules[1]
	if len(r2.Body) != 2 {
		t.Fatalf("r2 body = %v", r2.Body)
	}
	if got := r2.String(); got != "r2 reachable(@S, D) :- link(@S, Z), reachable(@Z, D)." {
		t.Errorf("r2 renders as %q", got)
	}
	if err := Validate(prog); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseReachableSeNDlog(t *testing.T) {
	prog, err := Parse(reachableSeNDlog)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 3 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
	for _, r := range prog.Rules {
		if !r.IsSeNDlog() {
			t.Errorf("rule %s should carry the At context", r.Label)
		}
		if v, ok := r.Context.(Variable); !ok || v.Name != "S" {
			t.Errorf("rule %s context = %v", r.Label, r.Context)
		}
	}
	s2 := prog.Rules[1]
	if s2.Head.Dest == nil {
		t.Fatal("s2 head needs destination @D")
	}
	if v, ok := s2.Head.Dest.(Variable); !ok || v.Name != "D" {
		t.Errorf("s2 dest = %v", s2.Head.Dest)
	}
	s3 := prog.Rules[2]
	if len(s3.Body) != 2 {
		t.Fatalf("s3 body = %v", s3.Body)
	}
	if s3.Body[0].Atom.Says == nil || s3.Body[1].Atom.Says == nil {
		t.Fatal("s3 body atoms must carry says")
	}
	if v, ok := s3.Body[0].Atom.Says.(Variable); !ok || v.Name != "Z" {
		t.Errorf("s3 first says = %v", s3.Body[0].Atom.Says)
	}
	if err := Validate(prog); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseFacts(t *testing.T) {
	prog, err := Parse(`
link(@a, b, 1).
link(@a, c, 5).
link(@b, c, 1).
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 3 {
		t.Fatalf("facts = %d", len(prog.Facts))
	}
	f := prog.Facts[0]
	if f.Node != "a" || f.Tuple.Pred != "link" {
		t.Errorf("fact = %+v", f)
	}
	if !f.Tuple.Args[2].Equal(data.Int(1)) {
		t.Errorf("fact cost = %v", f.Tuple.Args[2])
	}
}

func TestParseFactInContext(t *testing.T) {
	prog, err := Parse(`
At a:
  link(a, b).
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 1 || prog.Facts[0].Node != "a" {
		t.Fatalf("facts = %+v", prog.Facts)
	}
}

func TestParseMaterialize(t *testing.T) {
	prog, err := Parse(`
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, 30, 1000, keys(1,2,3)).
`)
	if err != nil {
		t.Fatal(err)
	}
	l := prog.Materialize["link"]
	if l == nil || l.TTLSeconds >= 0 || l.MaxSize >= 0 || len(l.KeyCols) != 2 {
		t.Errorf("link decl = %+v", l)
	}
	p := prog.Materialize["path"]
	if p == nil || p.TTLSeconds != 30 || p.MaxSize != 1000 || len(p.KeyCols) != 3 {
		t.Errorf("path decl = %+v", p)
	}
}

func TestParseAggSelection(t *testing.T) {
	prog, err := Parse(`aggSelection(path, keys(1,2), min, 5).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Prunes) != 1 {
		t.Fatalf("prunes = %v", prog.Prunes)
	}
	pr := prog.Prunes[0]
	if pr.Pred != "path" || pr.Func != AggMin || pr.Col != 5 || len(pr.KeyCols) != 2 {
		t.Errorf("prune = %+v", pr)
	}
}

func TestParseAggregateHead(t *testing.T) {
	prog, err := Parse(`sp3 spCost(@S,D,min<C>) :- path(@S,D,Z,P,C).`)
	if err != nil {
		t.Fatal(err)
	}
	h := prog.Rules[0].Head
	if !h.HasAgg() || h.AggFunc != AggMin || h.AggIdx != 2 {
		t.Errorf("head = %+v", h)
	}
	if err := Validate(prog); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// count<*>
	prog2, err := Parse(`c1 total(@S, count<*>) :- path(@S,D,Z,P,C).`)
	if err != nil {
		t.Fatal(err)
	}
	h2 := prog2.Rules[0].Head
	if !h2.HasAgg() || h2.AggFunc != AggCount {
		t.Errorf("count head = %+v", h2)
	}
	if err := Validate(prog2); err != nil {
		t.Errorf("Validate count<*>: %v", err)
	}
}

func TestParseBestPath(t *testing.T) {
	prog, err := Parse(`
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,4)).
aggSelection(path, keys(1,2), min, 5).

sp1 path(@S,D,D,P,C) :- link(@S,D,C), P = f_init(S,D).
sp2 path(@S,D,Z,P,C) :- link(@S,Z,C1), path(@Z,D,W,P2,C2), C = C1 + C2,
    f_member(P2,S) == 0, P = f_concat(S,P2).
sp3 spCost(@S,D,min<C>) :- path(@S,D,Z,P,C).
sp4 bestPath(@S,D,P,C) :- spCost(@S,D,C), path(@S,D,Z,P,C).
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 4 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
	sp1 := prog.Rules[0]
	if len(sp1.Body) != 2 || sp1.Body[1].Kind != LitAssign || sp1.Body[1].AssignVar != "P" {
		t.Errorf("sp1 body = %v", sp1.Body)
	}
	sp2 := prog.Rules[1]
	kinds := []LiteralKind{LitAtom, LitAtom, LitAssign, LitCond, LitAssign}
	if len(sp2.Body) != len(kinds) {
		t.Fatalf("sp2 body = %v", sp2.Body)
	}
	for i, k := range kinds {
		if sp2.Body[i].Kind != k {
			t.Errorf("sp2 body[%d] kind = %d, want %d (%s)", i, sp2.Body[i].Kind, k, sp2.Body[i])
		}
	}
	if err := Validate(prog); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseExpressions(t *testing.T) {
	prog, err := Parse(`r x(@S,C) :- y(@S,A,B), C = (A + B) * 2 - 1, A * 2 >= B || A == 0.`)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Rules[0].Body
	if body[1].Kind != LitAssign {
		t.Fatalf("expected assignment, got %s", body[1])
	}
	if got := body[1].Expr.String(); got != "(((A + B) * 2) - 1)" {
		t.Errorf("assign expr = %q", got)
	}
	if body[2].Kind != LitCond {
		t.Fatalf("expected condition, got %s", body[2])
	}
	if got := body[2].Expr.String(); got != "(((A * 2) >= B) || (A == 0))" {
		t.Errorf("cond expr = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	prog, err := Parse(`
// line comment
/* block
   comment */
% p2-style comment
r1 reachable(@S,D) :- link(@S,D). // trailing
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
}

func TestParseListLiteral(t *testing.T) {
	prog, err := Parse(`path(@a, c, [a, b, c], 2).`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Facts[0]
	want := data.Strings("a", "b", "c")
	if !f.Tuple.Args[2].Equal(want) {
		t.Errorf("list = %v", f.Tuple.Args[2])
	}
}

func TestParseStringAndNegativeConstants(t *testing.T) {
	prog, err := Parse(`metric(@a, "some label", -5).`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Facts[0]
	if !f.Tuple.Args[1].Equal(data.Str("some label")) || !f.Tuple.Args[2].Equal(data.Int(-5)) {
		t.Errorf("fact = %v", f.Tuple)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`r1 reachable(@S,D) :- link(@S,D)`, "expected"},          // missing period
		{`r1 reachable(@S,D :- link(@S,D).`, "expected"},          // bad paren
		{`reachable(@S,D).`, "constants"},                         // non-ground fact
		{`"unterminated`, "unterminated string"},                  // lexer
		{`/* unterminated`, "unterminated block comment"},         // lexer
		{`r1 p(@@S) :- q(@S).`, "expected term"},                  // double @
		{`r1 p(@S, min<C>, max<D>) :- q(@S,C,D).`, "at most one"}, // two aggs
		{`materialize(link, x, infinity, keys(1)).`, "ttl"},
		{`aggSelection(path, keys(1), sum, 5).`, "min/max"},
		{`r1 p(X) :- q(X).`, "$$$fact"}, // placeholder replaced below
	}
	for i, c := range cases {
		if c.wantSub == "$$$fact" {
			continue // covered by Validate tests
		}
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("case %d: expected error for %q", i, c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.wantSub)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("\n\nr1 p(@S :- q(@S).")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("expected SyntaxError, got %T: %v", err, err)
	}
	if se.Line != 3 {
		t.Errorf("error line = %d, want 3", se.Line)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("not a program @@@")
}

func TestProgramString(t *testing.T) {
	prog := MustParse(reachableSeNDlog)
	s := prog.String()
	if !strings.Contains(s, "At S:") {
		t.Errorf("program string missing context:\n%s", s)
	}
	// Re-parse the printed program: it must round trip.
	prog2, err := Parse(s)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s)
	}
	if len(prog2.Rules) != len(prog.Rules) {
		t.Errorf("round trip rules = %d, want %d", len(prog2.Rules), len(prog.Rules))
	}
}
