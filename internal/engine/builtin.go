package engine

import (
	"errors"
	"fmt"

	"provnet/internal/data"
	"provnet/internal/datalog"
)

// Errors produced by expression evaluation. A failing expression kills the
// current rule branch rather than the engine.
var (
	errUnboundVar = errors.New("engine: unbound variable in expression")
	errBadOperand = errors.New("engine: bad operand type")
)

// expr is a compiled datalog expression: its variables are resolved to
// environment slots and its calls to builtins when the rule is compiled,
// so evaluation looks nothing up.
type expr struct {
	kind exprKind
	val  data.Value  // exprConst
	slot int         // exprVar: the variable's slot, -1 when the rule has none
	name string      // exprVar, exprCall: for error text; exprUnknown: the Go type
	op   string      // exprUnary, exprBin
	fn   BuiltinFunc // exprCall; nil when no builtin has the name
	args []expr      // exprUnary: X; exprBin: L, R; exprCall: the arguments
}

type exprKind uint8

const (
	exprConst exprKind = iota
	exprVar
	exprUnary
	exprBin
	exprCall
	exprUnknown
)

// compileExpr compiles ex against the rule's variable slots.
func compileExpr(ex datalog.Expr, slots map[string]int) expr {
	operands := func(xs ...datalog.Expr) []expr {
		out := make([]expr, len(xs))
		for i, x := range xs {
			out[i] = compileExpr(x, slots)
		}
		return out
	}
	switch x := ex.(type) {
	case datalog.ConstExpr:
		return expr{kind: exprConst, val: x.Value}
	case datalog.VarExpr:
		slot, ok := slots[x.Name]
		if !ok {
			slot = -1
		}
		return expr{kind: exprVar, slot: slot, name: x.Name}
	case datalog.UnaryExpr:
		return expr{kind: exprUnary, op: x.Op, args: operands(x.X)}
	case datalog.BinExpr:
		return expr{kind: exprBin, op: x.Op, args: operands(x.L, x.R)}
	case datalog.CallExpr:
		return expr{kind: exprCall, name: x.Name, fn: Builtins[x.Name], args: operands(x.Args...)}
	default:
		return expr{kind: exprUnknown, name: fmt.Sprintf("%T", ex)}
	}
}

// evalExpr evaluates a compiled expression under the environment. A
// builtin's arguments are a window of sc.args, the engine's scratch stack,
// which the call's own argument expressions may push above and pop again.
func evalExpr(x *expr, env *env, sc *evalScratch) (data.Value, error) {
	switch x.kind {
	case exprConst:
		return x.val, nil
	case exprVar:
		if x.slot < 0 || !env.bound[x.slot] {
			return data.Value{}, fmt.Errorf("%w: %s", errUnboundVar, x.name)
		}
		return env.vals[x.slot], nil
	case exprUnary:
		v, err := evalExpr(&x.args[0], env, sc)
		if err != nil {
			return data.Value{}, err
		}
		switch x.op {
		case "-":
			switch v.Kind {
			case data.KindInt:
				return data.Int(-v.Int), nil
			case data.KindFloat:
				return data.Float(-v.Float), nil
			default:
				return data.Value{}, errBadOperand
			}
		case "!":
			return data.Bool(!v.IsTrue()), nil
		default:
			return data.Value{}, fmt.Errorf("engine: unknown unary op %q", x.op)
		}
	case exprBin:
		l, err := evalExpr(&x.args[0], env, sc)
		if err != nil {
			return data.Value{}, err
		}
		// Short-circuit logical operators.
		switch {
		case x.op == "&&" && !l.IsTrue():
			return data.Bool(false), nil
		case x.op == "||" && l.IsTrue():
			return data.Bool(true), nil
		}
		rv, err := evalExpr(&x.args[1], env, sc)
		if err != nil {
			return data.Value{}, err
		}
		if x.op == "&&" || x.op == "||" {
			return data.Bool(rv.IsTrue()), nil
		}
		return applyBinOp(x.op, l, rv)
	case exprCall:
		if x.fn == nil {
			return data.Value{}, fmt.Errorf("engine: unknown function %q", x.name)
		}
		base := len(sc.args)
		var v data.Value
		var err error
		for i := range x.args {
			if v, err = evalExpr(&x.args[i], env, sc); err != nil {
				break
			}
			sc.args = append(sc.args, v)
		}
		if err == nil {
			v, err = x.fn(sc.args[base:len(sc.args):len(sc.args)], sc.newList)
		}
		clear(sc.args[base:])
		sc.args = sc.args[:base]
		return v, err
	default:
		return data.Value{}, fmt.Errorf("engine: unknown expression %s", x.name)
	}
}

func applyBinOp(op string, l, r data.Value) (data.Value, error) {
	switch op {
	case "==":
		return data.Bool(l.Equal(r)), nil
	case "!=":
		return data.Bool(!l.Equal(r)), nil
	case "<", "<=", ">", ">=":
		c := l.Compare(r)
		switch op {
		case "<":
			return data.Bool(c < 0), nil
		case "<=":
			return data.Bool(c <= 0), nil
		case ">":
			return data.Bool(c > 0), nil
		default:
			return data.Bool(c >= 0), nil
		}
	case "+":
		if l.Kind == data.KindString && r.Kind == data.KindString {
			return data.Str(l.Str + r.Str), nil
		}
		return numericOp(op, l, r)
	case "-", "*", "/":
		return numericOp(op, l, r)
	default:
		return data.Value{}, fmt.Errorf("engine: unknown operator %q", op)
	}
}

func numericOp(op string, l, r data.Value) (data.Value, error) {
	numeric := func(v data.Value) bool { return v.Kind == data.KindInt || v.Kind == data.KindFloat }
	if !numeric(l) || !numeric(r) {
		return data.Value{}, errBadOperand
	}
	if l.Kind == data.KindInt && r.Kind == data.KindInt {
		a, b := l.Int, r.Int
		switch op {
		case "+":
			return data.Int(a + b), nil
		case "-":
			return data.Int(a - b), nil
		case "*":
			return data.Int(a * b), nil
		case "/":
			if b == 0 {
				return data.Value{}, errors.New("engine: division by zero")
			}
			return data.Int(a / b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return data.Float(a + b), nil
	case "-":
		return data.Float(a - b), nil
	case "*":
		return data.Float(a * b), nil
	case "/":
		if b == 0 {
			return data.Value{}, errors.New("engine: division by zero")
		}
		return data.Float(a / b), nil
	}
	return data.Value{}, fmt.Errorf("engine: unknown operator %q", op)
}

// BuiltinFunc is the signature of NDlog builtin functions (f_*). args is
// the engine's scratch, valid only during the call: a builtin must not
// keep it, nor return a value whose list aliases it. A builtin that
// returns a new list takes its n elements from newList, which the engine
// serves from its wave scratch: fire copies a list that a new head keeps
// (persist), so nothing else may hold one past the wave.
type BuiltinFunc func(args []data.Value, newList func(n int) []data.Value) (data.Value, error)

// Builtins is the registry of NDlog builtin functions, the list-and-path
// helpers used by declarative routing programs. Additional functions may
// be registered before programs are loaded: a rule's calls are resolved
// when LoadProgram compiles it.
var Builtins = map[string]BuiltinFunc{
	"f_init":   fInit,
	"f_concat": fConcat,
	"f_append": fAppend,
	"f_member": fMember,
	"f_size":   fSize,
	"f_first":  fFirst,
	"f_last":   fLast,
	"f_min":    fMin2,
	"f_max":    fMax2,
	"f_abs":    fAbs,
	"f_mod":    fMod,
}

func arity(args []data.Value, n int, name string) error {
	if len(args) != n {
		return fmt.Errorf("engine: %s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

// fInit builds the initial path list [S, D].
func fInit(args []data.Value, newList func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 2, "f_init"); err != nil {
		return data.Value{}, err
	}
	out := newList(2)
	out[0], out[1] = args[0], args[1]
	return data.List(out...), nil
}

// fConcat prepends an element to a list: f_concat(S, P) = [S | P].
func fConcat(args []data.Value, newList func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 2, "f_concat"); err != nil {
		return data.Value{}, err
	}
	if args[1].Kind != data.KindList {
		return data.Value{}, errBadOperand
	}
	out := newList(len(args[1].List) + 1)
	out[0] = args[0]
	copy(out[1:], args[1].List)
	return data.List(out...), nil
}

// fAppend appends an element to a list.
func fAppend(args []data.Value, newList func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 2, "f_append"); err != nil {
		return data.Value{}, err
	}
	if args[0].Kind != data.KindList {
		return data.Value{}, errBadOperand
	}
	out := newList(len(args[0].List) + 1)
	copy(out, args[0].List)
	out[len(out)-1] = args[1]
	return data.List(out...), nil
}

// fMember returns 1 if the element occurs in the list, else 0.
func fMember(args []data.Value, _ func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 2, "f_member"); err != nil {
		return data.Value{}, err
	}
	if args[0].Kind != data.KindList {
		return data.Value{}, errBadOperand
	}
	for _, e := range args[0].List {
		if e.Equal(args[1]) {
			return data.Int(1), nil
		}
	}
	return data.Int(0), nil
}

// fSize returns the length of a list.
func fSize(args []data.Value, _ func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 1, "f_size"); err != nil {
		return data.Value{}, err
	}
	if args[0].Kind != data.KindList {
		return data.Value{}, errBadOperand
	}
	return data.Int(int64(len(args[0].List))), nil
}

// fFirst returns the first element of a non-empty list.
func fFirst(args []data.Value, _ func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 1, "f_first"); err != nil {
		return data.Value{}, err
	}
	if args[0].Kind != data.KindList || len(args[0].List) == 0 {
		return data.Value{}, errBadOperand
	}
	return args[0].List[0], nil
}

// fLast returns the last element of a non-empty list.
func fLast(args []data.Value, _ func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 1, "f_last"); err != nil {
		return data.Value{}, err
	}
	if args[0].Kind != data.KindList || len(args[0].List) == 0 {
		return data.Value{}, errBadOperand
	}
	return args[0].List[len(args[0].List)-1], nil
}

// fMin2 returns the smaller of two values.
func fMin2(args []data.Value, _ func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 2, "f_min"); err != nil {
		return data.Value{}, err
	}
	if args[0].Compare(args[1]) <= 0 {
		return args[0], nil
	}
	return args[1], nil
}

// fMax2 returns the larger of two values.
func fMax2(args []data.Value, _ func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 2, "f_max"); err != nil {
		return data.Value{}, err
	}
	if args[0].Compare(args[1]) >= 0 {
		return args[0], nil
	}
	return args[1], nil
}

// fAbs returns the absolute value of a number.
func fAbs(args []data.Value, _ func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 1, "f_abs"); err != nil {
		return data.Value{}, err
	}
	switch args[0].Kind {
	case data.KindInt:
		if args[0].Int < 0 {
			return data.Int(-args[0].Int), nil
		}
		return args[0], nil
	case data.KindFloat:
		if args[0].Float < 0 {
			return data.Float(-args[0].Float), nil
		}
		return args[0], nil
	default:
		return data.Value{}, errBadOperand
	}
}

// fMod returns a % b for integers.
func fMod(args []data.Value, _ func(int) []data.Value) (data.Value, error) {
	if err := arity(args, 2, "f_mod"); err != nil {
		return data.Value{}, err
	}
	if args[0].Kind != data.KindInt || args[1].Kind != data.KindInt || args[1].Int == 0 {
		return data.Value{}, errBadOperand
	}
	return data.Int(args[0].Int % args[1].Int), nil
}
