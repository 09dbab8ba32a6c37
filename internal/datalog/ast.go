// Package datalog implements the NDlog and SeNDlog languages of the paper
// (§2.1, §2.2): lexer, parser, AST, program analysis (safety checking), and
// the localization rewrite that turns rules spanning several nodes into
// rules whose bodies execute at a single location.
//
// NDlog example (paper §2.1):
//
//	r1 reachable(@S,D) :- link(@S,D).
//	r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
//
// SeNDlog example (paper §2.2):
//
//	At S:
//	  s1 reachable(S,D) :- link(S,D).
//	  s2 linkD(D,S)@D :- link(S,D).
//	  s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).
package datalog

import (
	"fmt"
	"strings"

	"provnet/internal/data"
)

// Program is a parsed NDlog/SeNDlog program.
type Program struct {
	// Rules in source order (after parsing; Localize may add more).
	Rules []*Rule
	// Facts are ground base tuples declared in the program, each placed at
	// a node.
	Facts []Fact
	// Materialize declarations, keyed by predicate.
	Materialize map[string]*MaterializeDecl
	// Prunes are aggregate-selection pragmas.
	Prunes []*PruneDecl
}

// MaterializeDecl mirrors P2's materialize(pred, ttl, maxSize, keys(...))
// statement: it declares table properties for a predicate.
type MaterializeDecl struct {
	Pred string
	// TTLSeconds is the soft-state lifetime; <0 means infinity.
	TTLSeconds float64
	// MaxSize bounds the table (<0 means unbounded).
	MaxSize int
	// KeyCols are 1-based attribute positions forming the primary key;
	// empty means all columns.
	KeyCols []int
}

// PruneDecl is the aggregate-selection optimization pragma
// aggSelection(pred, keys(...), min, col): only tuples that improve the
// current minimum of column col within their key group are stored and
// propagated. This is the standard declarative-networking optimization that
// keeps Best-Path polynomial.
type PruneDecl struct {
	Pred string
	// KeyCols are 1-based group columns.
	KeyCols []int
	// Func is the selection aggregate (AggMin or AggMax).
	Func AggFunc
	// Col is the 1-based value column.
	Col int
}

// Fact is a ground tuple placed at a node.
type Fact struct {
	// Node is the placement: the location-specifier constant of the tuple.
	Node string
	// Tuple is the base tuple (without asserter).
	Tuple data.Tuple
	// Line is the source line, for error messages.
	Line int
}

// Rule is one NDlog or SeNDlog rule.
type Rule struct {
	// Label is the rule name, e.g. "r1" ("" if unnamed).
	Label string
	// Context is the SeNDlog principal context term ("At S:"); nil for
	// plain NDlog rules.
	Context Term
	// Head is the rule head.
	Head Atom
	// Body is the ordered list of body literals.
	Body []Literal
	// Line is the source line.
	Line int
}

// IsSeNDlog reports whether the rule was declared inside an At block.
func (r *Rule) IsSeNDlog() bool { return r.Context != nil }

// Atom is a predicate applied to terms, possibly with a location specifier
// (@ on an argument, NDlog style), a destination (trailing @Term, SeNDlog
// style), and at most one aggregate argument in rule heads.
type Atom struct {
	Pred string
	Args []Term
	// LocIdx is the index of the argument carrying the @ location
	// specifier, or -1.
	LocIdx int
	// Dest is the SeNDlog head destination (p(...)@Z), or nil.
	Dest Term
	// AggIdx is the index of the aggregated argument in a head atom, or
	// -1; AggFunc is its aggregate.
	AggIdx  int
	AggFunc AggFunc
}

// HasAgg reports whether the head atom contains an aggregate.
func (a *Atom) HasAgg() bool { return a.AggIdx >= 0 }

// AggFunc enumerates head aggregates.
type AggFunc uint8

// Supported aggregates.
const (
	AggNone AggFunc = iota
	AggMin
	AggMax
	AggCount
	AggSum
)

// String returns the NDlog spelling of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	default:
		return "none"
	}
}

// LiteralKind discriminates body literals.
type LiteralKind uint8

// Body literal kinds: a predicate atom, an assignment (X = expr binding a
// new variable), or a boolean condition.
const (
	LitAtom LiteralKind = iota
	LitAssign
	LitCond
)

// Literal is one element of a rule body.
type Literal struct {
	Kind LiteralKind
	// Atom fields (Kind == LitAtom).
	Atom *BodyAtom
	// Assign fields (Kind == LitAssign): Var := Expr.
	AssignVar string
	Expr      Expr // also the condition expression for LitCond
}

// BodyAtom is a predicate occurrence in a rule body, optionally asserted
// via says and optionally located (NDlog).
type BodyAtom struct {
	Pred string
	Args []Term
	// LocIdx is the @ argument index, or -1 (SeNDlog bodies are local).
	LocIdx int
	// Says is the asserting-principal term of "P says pred(...)", or nil.
	Says Term
}

// Term is a pattern element in an atom: a variable or a constant.
type Term interface {
	isTerm()
	String() string
}

// Variable is a term bound by matching ("S", "D"). The blank variable "_"
// matches anything without binding.
type Variable struct{ Name string }

func (Variable) isTerm() {}

// String returns the variable name.
func (v Variable) String() string { return v.Name }

// Blank reports whether v is the anonymous variable.
func (v Variable) Blank() bool { return v.Name == "_" }

// Constant is a literal term.
type Constant struct{ Value data.Value }

func (Constant) isTerm() {}

// String renders the constant.
func (c Constant) String() string { return c.Value.String() }

// Expr is an expression used in assignments and conditions.
type Expr interface {
	isExpr()
	String() string
}

// ConstExpr is a literal.
type ConstExpr struct{ Value data.Value }

func (ConstExpr) isExpr() {}

// String renders the literal.
func (e ConstExpr) String() string { return e.Value.String() }

// VarExpr references a variable.
type VarExpr struct{ Name string }

func (VarExpr) isExpr() {}

// String returns the variable name.
func (e VarExpr) String() string { return e.Name }

// BinExpr is a binary operation.
type BinExpr struct {
	Op   string // + - * / == != < <= > >= && ||
	L, R Expr
}

func (BinExpr) isExpr() {}

// String renders the operation parenthesised.
func (e BinExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// UnaryExpr is a unary operation (negation or logical not).
type UnaryExpr struct {
	Op string // - !
	X  Expr
}

func (UnaryExpr) isExpr() {}

// String renders the operation.
func (e UnaryExpr) String() string { return e.Op + e.X.String() }

// CallExpr is a builtin function call, e.g. f_concat(S, P).
type CallExpr struct {
	Name string
	Args []Expr
}

func (CallExpr) isExpr() {}

// String renders the call.
func (e CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// --- pretty printing ---

// String renders the atom in NDlog syntax.
func (a *Atom) String() string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		if i == a.LocIdx {
			sb.WriteByte('@')
		}
		if i == a.AggIdx {
			sb.WriteString(a.AggFunc.String())
			sb.WriteByte('<')
			sb.WriteString(t.String())
			sb.WriteByte('>')
		} else {
			sb.WriteString(t.String())
		}
	}
	sb.WriteByte(')')
	if a.Dest != nil {
		sb.WriteByte('@')
		sb.WriteString(a.Dest.String())
	}
	return sb.String()
}

// String renders the body atom in NDlog syntax.
func (a *BodyAtom) String() string {
	var sb strings.Builder
	if a.Says != nil {
		sb.WriteString(a.Says.String())
		sb.WriteString(" says ")
	}
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		if i == a.LocIdx {
			sb.WriteByte('@')
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// String renders the literal.
func (l Literal) String() string {
	switch l.Kind {
	case LitAtom:
		return l.Atom.String()
	case LitAssign:
		return l.AssignVar + " = " + l.Expr.String()
	default:
		return l.Expr.String()
	}
}

// String renders the rule in NDlog/SeNDlog syntax.
func (r *Rule) String() string {
	var sb strings.Builder
	if r.Label != "" {
		sb.WriteString(r.Label)
		sb.WriteByte(' ')
	}
	sb.WriteString(r.Head.String())
	sb.WriteString(" :- ")
	for i, l := range r.Body {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(l.String())
	}
	sb.WriteByte('.')
	return sb.String()
}

// String renders the whole program.
func (p *Program) String() string {
	var sb strings.Builder
	var ctx Term
	first := true
	for _, r := range p.Rules {
		if r.Context != nil && (ctx == nil || ctx.String() != r.Context.String()) {
			if !first {
				sb.WriteByte('\n')
			}
			fmt.Fprintf(&sb, "At %s:\n", r.Context)
			ctx = r.Context
		}
		if r.Context != nil {
			sb.WriteString("  ")
		}
		sb.WriteString(r.String())
		sb.WriteByte('\n')
		first = false
	}
	return sb.String()
}
