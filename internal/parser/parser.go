package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/term"
)

// AggregateFuncs is the set of monotonic aggregation function names
// recognized by the parser (paper Sec. 5).
var AggregateFuncs = map[string]bool{
	"msum":   true,
	"mprod":  true,
	"mmin":   true,
	"mmax":   true,
	"mcount": true,
	"munion": true,
}

// Parse parses a full Vadalog program.
func Parse(src string) (*ast.Program, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := ast.NewProgram()
	for p.tok.kind != tokEOF {
		if err := p.statement(prog); err != nil {
			return nil, err
		}
	}
	// Arity consistency is deliberately NOT checked here: the lint layer
	// reports drift per use site (A001) and the engines reject it at
	// compile time via Program.Predicates.
	return prog, nil
}

// ParseRule parses a single rule (ending with '.').
func ParseRule(src string) (*ast.Rule, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) != 1 || len(prog.Facts) != 0 {
		return nil, fmt.Errorf("parser: expected exactly one rule in %q", src)
	}
	return prog.Rules[0], nil
}

// MustParse parses a program and panics on error; intended for tests and
// generators with programmatically constructed sources.
func MustParse(src string) *ast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	lx  *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errorf("expected %s, found %s %q", k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) statement(prog *ast.Program) error {
	if p.tok.kind == tokAt {
		return p.annotation(prog)
	}
	return p.ruleOrFact(prog)
}

// annotation := '@' ident '(' literal {',' literal} ')' '.'
func (p *parser) annotation(prog *ast.Program) error {
	at := p.tok                         // position of '@', recorded on bindings/mappings for compile errors
	if err := p.advance(); err != nil { // consume @
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	var args []term.Value
	for p.tok.kind != tokRParen {
		v, err := p.literal()
		if err != nil {
			return err
		}
		args = append(args, v)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	if err := p.advance(); err != nil { // consume )
		return err
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	strArg := func(i int) (string, error) {
		if i >= len(args) || args[i].Kind() != term.KindString {
			return "", p.errorf("@%s: argument %d must be a string", name.text, i+1)
		}
		return args[i].Str(), nil
	}
	switch name.text {
	case "input":
		s, err := strArg(0)
		if err != nil {
			return err
		}
		prog.Inputs[s] = true
	case "output":
		s, err := strArg(0)
		if err != nil {
			return err
		}
		prog.Outputs[s] = true
	case "bind", "qbind":
		// @bind(pred, driver, target) attaches a record manager;
		// @qbind(pred, driver, target, query) additionally pushes the
		// query — a constant selection like "$2 > 10" — into the source.
		want := 3
		if name.text == "qbind" {
			want = 4
		}
		if len(args) != want {
			if want == 4 {
				return p.errorf("@qbind expects (predicate, driver, target, query)")
			}
			return p.errorf("@bind expects (predicate, driver, target)")
		}
		pred, err := strArg(0)
		if err != nil {
			return err
		}
		driver, err := strArg(1)
		if err != nil {
			return err
		}
		target, err := strArg(2)
		if err != nil {
			return err
		}
		b := ast.Binding{Pred: pred, Driver: driver, Target: target, Line: at.line, Col: at.col}
		if name.text == "qbind" {
			if b.Query, err = strArg(3); err != nil {
				return err
			}
			if b.Query == "" {
				return p.errorf("@qbind: empty query (use @bind for unconditional bindings)")
			}
		}
		prog.Bindings = append(prog.Bindings, b)
	case "mapping":
		if len(args) < 2 {
			return p.errorf("@mapping expects (predicate, col1, ...)")
		}
		pred, err := strArg(0)
		if err != nil {
			return err
		}
		cols := make([]string, 0, len(args)-1)
		for i := 1; i < len(args); i++ {
			c, err := strArg(i)
			if err != nil {
				return err
			}
			cols = append(cols, c)
		}
		prog.Mappings = append(prog.Mappings, ast.Mapping{Pred: pred, Columns: cols, Line: at.line, Col: at.col})
	case "post":
		if len(args) < 2 {
			return p.errorf("@post expects (predicate, kind [, arg])")
		}
		pred, err := strArg(0)
		if err != nil {
			return err
		}
		kind, err := strArg(1)
		if err != nil {
			return err
		}
		d := ast.PostDirective{Pred: pred, Kind: kind}
		if len(args) > 2 {
			if !args[2].IsNumeric() {
				return p.errorf("@post: third argument must be numeric")
			}
			d.Arg = int(args[2].IntVal())
		}
		switch kind {
		case "orderBy", "certain", "limit", "keepMax", "keepMin":
		default:
			return p.errorf("@post: unknown directive %q", kind)
		}
		prog.Posts = append(prog.Posts, d)
	default:
		return p.errorf("unknown annotation @%s", name.text)
	}
	return nil
}

// ruleOrFact parses `body -> head .` or `atom .` (a fact).
func (p *parser) ruleOrFact(prog *ast.Program) error {
	start := p.tok
	rule := &ast.Rule{Line: start.line, Col: start.col}
	if err := p.body(rule); err != nil {
		return err
	}
	if p.tok.kind == tokDot {
		// A fact or a headless item; only a single ground atom qualifies.
		if err := p.advance(); err != nil {
			return err
		}
		if len(rule.Body) != 1 || len(rule.Conds) != 0 || len(rule.Assignments) != 0 || rule.Aggregate != nil {
			return p.errorf("a statement without '->' must be a single ground fact")
		}
		a := rule.Body[0]
		if a.Negated {
			return p.errorf("a fact cannot be negated")
		}
		f := ast.Fact{Pred: a.Pred, Line: a.Line, Col: a.Col}
		for _, arg := range a.Args {
			if arg.IsVar {
				return p.errorf("fact %s contains variable %s", a.Pred, arg.Var)
			}
			f.Args = append(f.Args, arg.Const)
		}
		prog.Facts = append(prog.Facts, f)
		return nil
	}
	if _, err := p.expect(tokArrow); err != nil {
		return err
	}
	if err := p.head(rule); err != nil {
		return err
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	if err := validateRule(rule); err != nil {
		var pe *Error
		if errors.As(err, &pe) {
			return pe
		}
		return &Error{Line: rule.Line, Col: rule.Col, Msg: err.Error()}
	}
	prog.AddRule(rule)
	return nil
}

// body := item {',' item} where item is an atom, negated atom, condition,
// assignment or aggregation.
func (p *parser) body(rule *ast.Rule) error {
	for {
		if err := p.bodyItem(rule); err != nil {
			return err
		}
		if p.tok.kind != tokComma {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

func (p *parser) bodyItem(rule *ast.Rule) error {
	start := p.tok
	switch p.tok.kind {
	case tokNot:
		if err := p.advance(); err != nil {
			return err
		}
		a, err := p.atom()
		if err != nil {
			return err
		}
		a.Negated = true
		rule.Body = append(rule.Body, a)
		return nil
	case tokVar:
		// Could be: assignment/aggregate (Var = ...), or a condition whose
		// left side starts with a variable.
		name := p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokAssign {
			if err := p.advance(); err != nil {
				return err
			}
			return p.assignmentOrAggregate(rule, name, start)
		}
		// Condition with left side an expression starting at `name`.
		left, err := p.exprContinue(ast.VarExpr{Name: name})
		if err != nil {
			return err
		}
		return p.conditionTail(rule, left, start)
	case tokIdent:
		// Could be an atom `p(...)` or a condition starting with a function
		// call or constant. An identifier followed by '(' is an atom unless
		// it is a known builtin function.
		name := p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokLParen && !builtinFunc(name) {
			a, err := p.atomArgs(name, start)
			if err != nil {
				return err
			}
			if a.Pred == ast.DomPred {
				// dom(*) grounds every body variable; dom(V) grounds V only.
				if len(a.Args) == 1 && a.Args[0].IsVar && a.Args[0].Var == "*" {
					rule.UsesDom = true
				} else {
					for _, arg := range a.Args {
						if !arg.IsVar {
							return p.errorf("dom() arguments must be variables")
						}
						rule.DomVars = append(rule.DomVars, arg.Var)
					}
				}
				return nil
			}
			rule.Body = append(rule.Body, a)
			return nil
		}
		var base ast.Expr
		if p.tok.kind == tokLParen {
			args, err := p.callArgs()
			if err != nil {
				return err
			}
			base = ast.FuncExpr{Name: name, Args: args}
		} else {
			base = ast.ConstExpr{Val: term.String(name)}
		}
		left, err := p.exprContinue(base)
		if err != nil {
			return err
		}
		return p.conditionTail(rule, left, start)
	default:
		// Condition starting with a literal or parenthesized expression.
		left, err := p.expr()
		if err != nil {
			return err
		}
		return p.conditionTail(rule, left, start)
	}
}

// assignmentOrAggregate parses the right side of `Var = ...` in a body;
// start is the token of the assigned variable, stamped onto the result.
func (p *parser) assignmentOrAggregate(rule *ast.Rule, name string, start token) error {
	if p.tok.kind == tokIdent && AggregateFuncs[p.tok.text] {
		fn := p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return err
		}
		arg, err := p.expr()
		if err != nil {
			return err
		}
		var contributors []string
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return err
			}
			if _, err := p.expect(tokLt); err != nil {
				return err
			}
			for {
				v, err := p.expect(tokVar)
				if err != nil {
					return err
				}
				contributors = append(contributors, v.text)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return err
				}
			}
			if _, err := p.expect(tokGt); err != nil {
				return err
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
		if rule.Aggregate != nil {
			return p.errorf("a rule may contain at most one aggregation")
		}
		rule.Aggregate = &ast.AggregateSpec{Result: name, Func: fn, Arg: arg, Contributors: contributors, Line: start.line, Col: start.col}
		return nil
	}
	e, err := p.expr()
	if err != nil {
		return err
	}
	rule.Assignments = append(rule.Assignments, ast.Assignment{Var: name, Expr: e, Line: start.line, Col: start.col})
	return nil
}

// conditionTail parses the operator and right side of a condition; start
// is the first token of the left expression, stamped onto the condition.
func (p *parser) conditionTail(rule *ast.Rule, left ast.Expr, start token) error {
	var op ast.CmpOp
	switch p.tok.kind {
	case tokEq:
		op = ast.CmpEq
	case tokNeq:
		op = ast.CmpNeq
	case tokLt:
		op = ast.CmpLt
	case tokLe:
		op = ast.CmpLe
	case tokGt:
		op = ast.CmpGt
	case tokGe:
		op = ast.CmpGe
	default:
		return p.errorf("expected comparison operator, found %s", p.tok.kind)
	}
	if err := p.advance(); err != nil {
		return err
	}
	right, err := p.expr()
	if err != nil {
		return err
	}
	rule.Conds = append(rule.Conds, ast.Condition{Op: op, L: left, R: right, Line: start.line, Col: start.col})
	return nil
}

// head := '#fail' | Var '=' Var | atom {',' atom}
func (p *parser) head(rule *ast.Rule) error {
	if p.tok.kind == tokHash {
		if p.tok.text != "fail" {
			return p.errorf("unexpected #%s in head (only #fail)", p.tok.text)
		}
		rule.IsConstraint = true
		return p.advance()
	}
	if p.tok.kind == tokVar {
		// EGD head: X = Y.
		left := p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
		if _, err := p.expect(tokAssign); err != nil {
			return err
		}
		right, err := p.expect(tokVar)
		if err != nil {
			return err
		}
		rule.EGD = &ast.EGDSpec{Left: left, Right: right.text}
		return nil
	}
	for {
		a, err := p.atom()
		if err != nil {
			return err
		}
		rule.Heads = append(rule.Heads, a)
		if p.tok.kind != tokComma {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

func (p *parser) atom() (ast.Atom, error) {
	name := p.tok
	if _, err := p.expect(tokIdent); err != nil {
		return ast.Atom{}, err
	}
	return p.atomArgs(name.text, name)
}

// atomArgs parses '(' term {',' term} ')' for predicate pred; '*' yields
// the dom(*) guard. start is the predicate-name token; its position is
// stamped onto the atom (and each argument token's onto its Arg).
func (p *parser) atomArgs(pred string, start token) (ast.Atom, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return ast.Atom{}, err
	}
	a := ast.Atom{Pred: pred, Line: start.line, Col: start.col}
	if p.tok.kind == tokStar {
		star := p.tok
		if err := p.advance(); err != nil {
			return ast.Atom{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return ast.Atom{}, err
		}
		a.Args = []ast.Arg{{IsVar: true, Var: "*", Line: star.line, Col: star.col}}
		return a, nil
	}
	for p.tok.kind != tokRParen {
		at := p.tok
		switch p.tok.kind {
		case tokVar:
			a.Args = append(a.Args, ast.Arg{IsVar: true, Var: at.text, Line: at.line, Col: at.col})
			if err := p.advance(); err != nil {
				return ast.Atom{}, err
			}
		default:
			v, err := p.literal()
			if err != nil {
				return ast.Atom{}, err
			}
			a.Args = append(a.Args, ast.Arg{Const: v, Line: at.line, Col: at.col})
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return ast.Atom{}, err
			}
			if p.tok.kind == tokRParen {
				return ast.Atom{}, p.errorf("trailing comma in argument list of %s", pred)
			}
		} else if p.tok.kind != tokRParen {
			return ast.Atom{}, p.errorf("expected , or ) in argument list of %s", pred)
		}
	}
	if err := p.advance(); err != nil { // consume )
		return ast.Atom{}, err
	}
	if len(a.Args) == 0 {
		return ast.Atom{}, p.errorf("predicate %s needs at least one argument", pred)
	}
	return a, nil
}

// literal parses a constant: number, string, #t/#f, negative number, or a
// lowercase identifier (treated as a string constant).
func (p *parser) literal() (term.Value, error) {
	switch p.tok.kind {
	case tokNumber:
		v, err := numberValue(p.tok.text)
		if err != nil {
			return term.Value{}, p.errorf("%v", err)
		}
		return v, p.advance()
	case tokMinus:
		if err := p.advance(); err != nil {
			return term.Value{}, err
		}
		n, err := p.expect(tokNumber)
		if err != nil {
			return term.Value{}, err
		}
		v, err := numberValue(n.text)
		if err != nil {
			return term.Value{}, p.errorf("%v", err)
		}
		if v.Kind() == term.KindInt {
			return term.Int(-v.IntVal()), nil
		}
		return term.Float(-v.FloatVal()), nil
	case tokString:
		v := term.String(p.tok.text)
		return v, p.advance()
	case tokIdent:
		v := term.String(p.tok.text)
		return v, p.advance()
	case tokHash:
		switch p.tok.text {
		case "t":
			return term.Bool(true), p.advance()
		case "f":
			return term.Bool(false), p.advance()
		}
		return term.Value{}, p.errorf("unexpected #%s as literal", p.tok.text)
	default:
		return term.Value{}, p.errorf("expected literal, found %s %q", p.tok.kind, p.tok.text)
	}
}

func numberValue(text string) (term.Value, error) {
	if !strings.ContainsAny(text, ".eE") {
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return term.Value{}, fmt.Errorf("bad integer literal %q", text)
		}
		return term.Int(i), nil
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return term.Value{}, fmt.Errorf("bad float literal %q", text)
	}
	return term.Float(f), nil
}

// expr parses an arithmetic/string/boolean expression (no comparisons).
func (p *parser) expr() (ast.Expr, error) {
	e, err := p.unary()
	if err != nil {
		return nil, err
	}
	return p.exprContinue(e)
}

// exprContinue parses binary operator tails with precedence, starting from
// an already-parsed left operand (precedence floor 0).
func (p *parser) exprContinue(left ast.Expr) (ast.Expr, error) {
	return p.binaryTail(left, 0)
}

func precedence(k tokKind) int {
	switch k {
	case tokOrOr:
		return 1
	case tokAndAnd:
		return 2
	case tokPlus, tokMinus:
		return 3
	case tokStar, tokSlash, tokPercent:
		return 4
	case tokCaret:
		return 5
	default:
		return 0
	}
}

func opText(k tokKind) string {
	switch k {
	case tokOrOr:
		return "||"
	case tokAndAnd:
		return "&&"
	case tokPlus:
		return "+"
	case tokMinus:
		return "-"
	case tokStar:
		return "*"
	case tokSlash:
		return "/"
	case tokPercent:
		return "%"
	case tokCaret:
		return "^"
	default:
		return "?"
	}
}

func (p *parser) binaryTail(left ast.Expr, minPrec int) (ast.Expr, error) {
	for {
		prec := precedence(p.tok.kind)
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		for {
			nextPrec := precedence(p.tok.kind)
			if nextPrec == 0 || nextPrec <= prec {
				break
			}
			right, err = p.binaryTail(right, nextPrec)
			if err != nil {
				return nil, err
			}
		}
		left = ast.BinExpr{Op: opText(op), L: left, R: right}
	}
}

func (p *parser) unary() (ast.Expr, error) {
	switch p.tok.kind {
	case tokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return ast.BinExpr{Op: "-", L: ast.ConstExpr{Val: term.Int(0)}, R: e}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokVar:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return ast.VarExpr{Name: name}, nil
	case tokNumber, tokString:
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return ast.ConstExpr{Val: v}, nil
	case tokHash:
		// #t / #f booleans, or a Skolem function call #f(X,...).
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen {
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return ast.FuncExpr{Name: "#" + name, Args: args}, nil
		}
		switch name {
		case "t":
			return ast.ConstExpr{Val: term.Bool(true)}, nil
		case "f":
			return ast.ConstExpr{Val: term.Bool(false)}, nil
		}
		return nil, p.errorf("unexpected #%s in expression", name)
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen {
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return ast.FuncExpr{Name: name, Args: args}, nil
		}
		return ast.ConstExpr{Val: term.String(name)}, nil
	default:
		return nil, p.errorf("expected expression, found %s %q", p.tok.kind, p.tok.text)
	}
}

func (p *parser) callArgs() ([]ast.Expr, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var args []ast.Expr
	for p.tok.kind != tokRParen {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else if p.tok.kind != tokRParen {
			return nil, p.errorf("expected , or ) in call arguments")
		}
	}
	return args, p.advance()
}

func builtinFunc(name string) bool {
	switch name {
	case "startsWith", "endsWith", "contains", "indexOf", "substring",
		"length", "upper", "lower", "concat", "abs", "min", "max",
		"toInt", "toFloat", "toString":
		return true
	}
	return AggregateFuncs[name]
}

// validateRule runs the structural checks that are independent of the
// whole-program analysis. Messages carry no position or "parser:" prefix;
// the caller wraps them in a positioned *Error at the rule's location.
func validateRule(r *ast.Rule) error {
	if len(r.Heads) == 0 && !r.IsConstraint && r.EGD == nil {
		return fmt.Errorf("rule %s has no head", r.String())
	}
	// An anonymous head position would derive a fact with no value there.
	for _, h := range r.Heads {
		for _, arg := range h.Args {
			if arg.IsVar && arg.Var == "_" {
				return &Error{Line: arg.Line, Col: arg.Col,
					Msg: fmt.Sprintf("anonymous variable _ in head atom %s: a derived fact needs a value at every position", h.String())}
			}
		}
	}
	bound := r.BoundVars()
	for _, c := range r.Conds {
		for _, v := range c.L.Vars(c.R.Vars(nil)) {
			if !bound[v] {
				return fmt.Errorf("condition variable %s is unbound in %s", v, r.String())
			}
		}
	}
	for _, asg := range r.Assignments {
		for _, v := range asg.Expr.Vars(nil) {
			if !bound[v] || v == asg.Var {
				if v == asg.Var {
					return fmt.Errorf("assignment %s is self-referential", asg.Var)
				}
				return fmt.Errorf("assignment to %s reads unbound variable %s", asg.Var, v)
			}
		}
	}
	if r.Aggregate != nil {
		bodyVars := make(map[string]bool)
		for _, v := range r.BodyVars() {
			bodyVars[v] = true
		}
		for _, v := range r.Aggregate.Arg.Vars(nil) {
			if !bodyVars[v] {
				return fmt.Errorf("aggregate argument reads unbound variable %s", v)
			}
		}
		for _, c := range r.Aggregate.Contributors {
			if !bodyVars[c] {
				return fmt.Errorf("aggregate contributor %s is unbound", c)
			}
		}
	}
	if r.EGD != nil {
		bodyVars := make(map[string]bool)
		for _, v := range r.BodyVars() {
			bodyVars[v] = true
		}
		if !bodyVars[r.EGD.Left] || !bodyVars[r.EGD.Right] {
			return fmt.Errorf("EGD head variables must occur in the body")
		}
	}
	// Negated atoms must be safe: every variable bound positively.
	posVars := make(map[string]bool)
	for _, v := range r.BodyVars() {
		posVars[v] = true
	}
	for _, a := range r.Body {
		if !a.Negated {
			continue
		}
		for _, arg := range a.Args {
			if arg.IsVar && arg.Var != "_" && !posVars[arg.Var] {
				return fmt.Errorf("variable %s of negated atom %s is not bound positively", arg.Var, a.String())
			}
		}
	}
	return nil
}
