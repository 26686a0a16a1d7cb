package ast

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/term"
)

// Expr is an expression over rule variables (paper Sec. 5): a term is an
// expression; a combination of expressions by typed operators is an
// expression. Expressions appear in conditions and assignments.
type Expr interface {
	// Eval computes the expression under the variable bindings env.
	Eval(env map[string]term.Value) (term.Value, error)
	// Vars appends the variables the expression reads to dst.
	Vars(dst []string) []string
	// String renders the expression in surface syntax.
	String() string
}

// ConstExpr is a literal constant.
type ConstExpr struct{ Val term.Value }

// Eval returns the constant.
func (e ConstExpr) Eval(map[string]term.Value) (term.Value, error) { return e.Val, nil }

// Vars returns dst unchanged.
func (e ConstExpr) Vars(dst []string) []string { return dst }

// String renders the constant so that the parser reads it back as the
// same value (see SourceString).
func (e ConstExpr) String() string { return SourceString(e.Val) }

// VarExpr reads a rule variable.
type VarExpr struct{ Name string }

// Eval looks the variable up in env.
func (e VarExpr) Eval(env map[string]term.Value) (term.Value, error) {
	v, ok := env[e.Name]
	if !ok {
		return term.Value{}, fmt.Errorf("ast: unbound variable %s in expression", e.Name)
	}
	return v, nil
}

// Vars appends the variable name if absent.
func (e VarExpr) Vars(dst []string) []string {
	if !containsStr(dst, e.Name) {
		dst = append(dst, e.Name)
	}
	return dst
}

// String renders the variable name.
func (e VarExpr) String() string { return e.Name }

// BinExpr applies a binary operator: + - * / % for numerics, + as string
// concatenation, && and || for booleans.
type BinExpr struct {
	Op   string
	L, R Expr
}

// Eval evaluates both sides and applies the operator (see Operator).
func (e BinExpr) Eval(env map[string]term.Value) (term.Value, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return term.Value{}, err
	}
	r, err := e.R.Eval(env)
	if err != nil {
		return term.Value{}, err
	}
	return Operator(e.Op)(l, r)
}

// BinOp is the semantics of a binary operator over evaluated operands.
type BinOp func(l, r term.Value) (term.Value, error)

// operators holds every binary operator's semantics, built once.
var operators = map[string]BinOp{
	"&&": logic("&&", func(a, b bool) bool { return a && b }),
	"||": logic("||", func(a, b bool) bool { return a || b }),
	"+":  arith{op: "+", concat: true, ints: func(a, b int64) int64 { return a + b }, floats: func(a, b float64) float64 { return a + b }}.apply,
	"-":  arith{op: "-", ints: func(a, b int64) int64 { return a - b }, floats: func(a, b float64) float64 { return a - b }}.apply,
	"*":  arith{op: "*", ints: func(a, b int64) int64 { return a * b }, floats: func(a, b float64) float64 { return a * b }}.apply,
	"/":  arith{op: "/", byZero: "division", ints: func(a, b int64) int64 { return a / b }, floats: func(a, b float64) float64 { return a / b }}.apply,
	"%":  arith{op: "%", byZero: "modulo", ints: func(a, b int64) int64 { return a % b }}.apply,
	"^":  arith{op: "^", floats: math.Pow}.apply,
}

// Operator returns the semantics of binary operator op, the paper's typed
// expressions: && and || over booleans; + concatenates when either side
// is a string; + - * / % over two ints stay ints; otherwise numerics widen
// to floats (^ always does, % is undefined on floats). An unknown operator
// yields a function that reports it.
func Operator(op string) BinOp {
	if f, ok := operators[op]; ok {
		return f
	}
	return func(term.Value, term.Value) (term.Value, error) {
		return term.Value{}, fmt.Errorf("ast: unknown operator %s", op)
	}
}

func logic(op string, f func(a, b bool) bool) BinOp {
	return func(l, r term.Value) (term.Value, error) {
		if l.Kind() != term.KindBool || r.Kind() != term.KindBool {
			return term.Value{}, fmt.Errorf("ast: %s requires booleans, got %s and %s", op, l.Kind(), r.Kind())
		}
		return term.Bool(f(l.BoolVal(), r.BoolVal())), nil
	}
}

// arith is a numeric operator: ints applies to two ints (nil: they widen
// to floats; byZero names the operation an int zero divisor fails),
// floats to widened operands (nil: undefined), concat allows strings.
type arith struct {
	op, byZero string
	concat     bool
	ints       func(a, b int64) int64
	floats     func(a, b float64) float64
}

func (o arith) apply(l, r term.Value) (term.Value, error) {
	if l.Kind() == term.KindString || r.Kind() == term.KindString {
		if !o.concat {
			return term.Value{}, fmt.Errorf("ast: operator %s not defined on strings", o.op)
		}
		return term.String(valueToStr(l) + valueToStr(r)), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return term.Value{}, fmt.Errorf("ast: operator %s requires numerics, got %s and %s", o.op, l.Kind(), r.Kind())
	}
	if o.ints != nil && l.Kind() == term.KindInt && r.Kind() == term.KindInt {
		if o.byZero != "" && r.IntVal() == 0 {
			return term.Value{}, fmt.Errorf("ast: integer %s by zero", o.byZero)
		}
		return term.Int(o.ints(l.IntVal(), r.IntVal())), nil
	}
	if o.floats == nil {
		return term.Value{}, fmt.Errorf("ast: unknown operator %s", o.op)
	}
	return term.Float(o.floats(l.FloatVal(), r.FloatVal())), nil
}

// Vars appends variables of both operands.
func (e BinExpr) Vars(dst []string) []string { return e.R.Vars(e.L.Vars(dst)) }

// String renders the expression parenthesized. The modulo operator is
// written %% — a single % starts a comment in the surface syntax.
func (e BinExpr) String() string {
	op := e.Op
	if op == "%" {
		op = "%%"
	}
	return "(" + e.L.String() + " " + op + " " + e.R.String() + ")"
}

// FuncExpr applies a built-in typed function (string, date, numeric and
// conversion operators of Sec. 5) or a Skolem function (#name).
type FuncExpr struct {
	Name string
	Args []Expr
}

// Eval evaluates the arguments and applies the builtin (see Builtin).
// Skolem functions are not evaluated here; the engine intercepts them
// (they need the null factory) — Eval reports an error if one reaches it.
func (e FuncExpr) Eval(env map[string]term.Value) (term.Value, error) {
	args := make([]term.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(env)
		if err != nil {
			return term.Value{}, err
		}
		args[i] = v
	}
	return Builtin(e.Name)(args)
}

// Vars appends variables of every argument.
func (e FuncExpr) Vars(dst []string) []string {
	for _, a := range e.Args {
		dst = a.Vars(dst)
	}
	return dst
}

// String renders the call.
func (e FuncExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ",") + ")"
}

// IsSkolem reports whether the call is a Skolem function (#name).
func (e FuncExpr) IsSkolem() bool { return strings.HasPrefix(e.Name, "#") }

func valueToStr(v term.Value) string {
	if v.Kind() == term.KindString {
		return v.Str()
	}
	return v.String()
}

// Func is the semantics of a built-in function over evaluated arguments.
// It does not retain args.
type Func func(args []term.Value) (term.Value, error)

// Builtin returns the semantics of the built-in function name (string,
// numeric and conversion operators of Sec. 5), arity check included. A
// Skolem function (#name) or an unknown name yields a function that
// reports it.
func Builtin(name string) Func {
	if strings.HasPrefix(name, "#") {
		return func([]term.Value) (term.Value, error) {
			return term.Value{}, fmt.Errorf("ast: skolem function %s must be evaluated by the engine", name)
		}
	}
	if f, ok := builtins[name]; ok {
		return f
	}
	return func([]term.Value) (term.Value, error) {
		return term.Value{}, fmt.Errorf("ast: unknown function %s", name)
	}
}

// builtins holds every built-in function, each wrapped in its arity check
// once.
var builtins = map[string]Func{
	"startsWith": fixed("startsWith", 2, func(a []term.Value) (term.Value, error) {
		return term.Bool(strings.HasPrefix(a[0].Str(), a[1].Str())), nil
	}),
	"endsWith": fixed("endsWith", 2, func(a []term.Value) (term.Value, error) {
		return term.Bool(strings.HasSuffix(a[0].Str(), a[1].Str())), nil
	}),
	"contains": fixed("contains", 2, func(a []term.Value) (term.Value, error) {
		return term.Bool(strings.Contains(a[0].Str(), a[1].Str())), nil
	}),
	"indexOf": fixed("indexOf", 2, func(a []term.Value) (term.Value, error) {
		return term.Int(int64(strings.Index(a[0].Str(), a[1].Str()))), nil
	}),
	"substring": fixed("substring", 3, func(a []term.Value) (term.Value, error) {
		s := a[0].Str()
		lo, hi := int(a[1].IntVal()), int(a[2].IntVal())
		if lo < 0 || hi > len(s) || lo > hi {
			return term.Value{}, fmt.Errorf("ast: substring bounds [%d,%d) out of range for %q", lo, hi, s)
		}
		return term.String(s[lo:hi]), nil
	}),
	"length": fixed("length", 1, func(a []term.Value) (term.Value, error) {
		return term.Int(int64(len(a[0].Str()))), nil
	}),
	"upper": fixed("upper", 1, func(a []term.Value) (term.Value, error) {
		return term.String(strings.ToUpper(a[0].Str())), nil
	}),
	"lower": fixed("lower", 1, func(a []term.Value) (term.Value, error) {
		return term.String(strings.ToLower(a[0].Str())), nil
	}),
	"concat": func(a []term.Value) (term.Value, error) {
		var sb strings.Builder
		for _, v := range a {
			sb.WriteString(valueToStr(v))
		}
		return term.String(sb.String()), nil
	},
	"abs": fixed("abs", 1, func(a []term.Value) (term.Value, error) {
		if a[0].Kind() == term.KindInt {
			v := a[0].IntVal()
			if v < 0 {
				v = -v
			}
			return term.Int(v), nil
		}
		return term.Float(math.Abs(a[0].FloatVal())), nil
	}),
	"min": fixed("min", 2, func(a []term.Value) (term.Value, error) {
		if term.Compare(a[0], a[1]) <= 0 {
			return a[0], nil
		}
		return a[1], nil
	}),
	"max": fixed("max", 2, func(a []term.Value) (term.Value, error) {
		if term.Compare(a[0], a[1]) >= 0 {
			return a[0], nil
		}
		return a[1], nil
	}),
	"toInt": fixed("toInt", 1, func(a []term.Value) (term.Value, error) {
		switch a[0].Kind() {
		case term.KindInt:
			return a[0], nil
		case term.KindFloat:
			return term.Int(int64(a[0].FloatVal())), nil
		case term.KindString:
			v, err := term.ParseLiteral(a[0].Str())
			if err != nil || v.Kind() != term.KindInt {
				return term.Value{}, fmt.Errorf("ast: cannot convert %q to int", a[0].Str())
			}
			return v, nil
		}
		return term.Value{}, fmt.Errorf("ast: cannot convert %s to int", a[0].Kind())
	}),
	"toFloat": fixed("toFloat", 1, func(a []term.Value) (term.Value, error) {
		if a[0].IsNumeric() {
			return term.Float(a[0].FloatVal()), nil
		}
		return term.Value{}, fmt.Errorf("ast: cannot convert %s to float", a[0].Kind())
	}),
	"toString": fixed("toString", 1, func(a []term.Value) (term.Value, error) {
		return term.String(valueToStr(a[0])), nil
	}),
}

// fixed wraps f in a check that it receives exactly n arguments.
func fixed(name string, n int, f Func) Func {
	return func(args []term.Value) (term.Value, error) {
		if len(args) != n {
			return term.Value{}, fmt.Errorf("ast: %s expects %d arguments, got %d", name, n, len(args))
		}
		return f(args)
	}
}

// EvalCondition evaluates a condition under env (see CmpOp.Holds).
func EvalCondition(c Condition, env map[string]term.Value) (bool, error) {
	l, err := c.L.Eval(env)
	if err != nil {
		return false, err
	}
	r, err := c.R.Eval(env)
	if err != nil {
		return false, err
	}
	return c.Op.Holds(l, r), nil
}

// Holds is the one comparison rule, shared by rule conditions and source
// queries. A labelled null is a plain symbol: == holds only of the same
// null, != of different values, and no ordering holds. Other values are
// equal under term.Equal (an Int and a Float by numeric value) and ordered
// by term.Compare (numerics numerically, otherwise by kind, then payload).
// An unknown operator never holds.
func (op CmpOp) Holds(l, r term.Value) bool {
	if l.IsNull() || r.IsNull() {
		switch op {
		case CmpEq:
			return l == r
		case CmpNeq:
			return l != r
		}
		return false
	}
	switch op {
	case CmpEq:
		return term.Equal(l, r)
	case CmpNeq:
		return !term.Equal(l, r)
	case CmpLt:
		return term.Compare(l, r) < 0
	case CmpLe:
		return term.Compare(l, r) <= 0
	case CmpGt:
		return term.Compare(l, r) > 0
	case CmpGe:
		return term.Compare(l, r) >= 0
	}
	return false
}
