package ast

import (
	"math"
	"testing"

	"repro/internal/term"
)

func TestFactKeys(t *testing.T) {
	f1 := NewFact("p", term.String("a"), term.Null(1))
	f2 := NewFact("p", term.String("a"), term.Null(2))
	f3 := NewFact("p", term.String("b"), term.Null(1))
	if f1.Key() == f2.Key() {
		t.Error("exact keys must distinguish null identities")
	}
	if f1.Key() == f3.Key() {
		t.Error("exact keys must distinguish constants")
	}
}

// TestIsomorphismIsEquivalence checks reflexivity, symmetry, transitivity.
func TestIsomorphismIsEquivalence(t *testing.T) {
	mk := func(ids ...int64) Fact {
		args := make([]term.Value, len(ids))
		for i, id := range ids {
			if id < 0 {
				args[i] = term.Int(-id)
			} else {
				args[i] = term.Null(id)
			}
		}
		return Fact{Pred: "p", Args: args}
	}
	a := mk(1, 2, -5)
	b := mk(7, 8, -5)
	c := mk(3, 4, -5)
	if !Isomorphic(a, a) {
		t.Error("reflexive")
	}
	if Isomorphic(a, b) != Isomorphic(b, a) {
		t.Error("symmetric")
	}
	if Isomorphic(a, b) && Isomorphic(b, c) && !Isomorphic(a, c) {
		t.Error("transitive")
	}
	// Repeated nulls need a consistent bijection.
	d := mk(1, 1, -5)
	e := mk(2, 3, -5)
	if Isomorphic(d, e) {
		t.Error("p(n1,n1) is not isomorphic to p(n2,n3)")
	}
}

func TestPatternKey(t *testing.T) {
	f1 := NewFact("p", term.Int(1), term.Int(2), term.Null(3), term.Null(4))
	f2 := NewFact("p", term.Int(3), term.Int(4), term.Null(9), term.Null(4))
	f3 := NewFact("p", term.Int(5), term.Int(5), term.Null(1), term.Null(2))
	if f1.PatternKey() != f2.PatternKey() {
		t.Error("pattern-isomorphic facts must share a pattern (paper example)")
	}
	if f1.PatternKey() == f3.PatternKey() {
		t.Error("repeated constants change the pattern (paper example)")
	}
}

func TestRuleExistentialsAndVars(t *testing.T) {
	r := &Rule{
		Body:  []Atom{NewAtom("p", V("X"), V("Y"))},
		Heads: []Atom{NewAtom("q", V("X"), V("Z"), V("W"))},
	}
	ex := r.Existentials()
	if len(ex) != 2 || ex[0] != "Z" || ex[1] != "W" {
		t.Fatalf("existentials: %v", ex)
	}
	r.Assignments = append(r.Assignments, Assignment{Var: "Z", Expr: VarExpr{Name: "X"}})
	ex = r.Existentials()
	if len(ex) != 1 || ex[0] != "W" {
		t.Fatalf("assignment binds Z: %v", ex)
	}
}

func TestRuleLinear(t *testing.T) {
	r := &Rule{Body: []Atom{NewAtom("p", V("X"))}, Heads: []Atom{NewAtom("q", V("X"))}}
	if !r.IsLinear() {
		t.Error("single atom is linear")
	}
	r.Body = append(r.Body, Atom{Pred: DomPred, Args: []Arg{V("*")}})
	if !r.IsLinear() {
		t.Error("dom guard does not count")
	}
	r.Body = append(r.Body, NewAtom("r", V("X")))
	if r.IsLinear() {
		t.Error("two positive atoms is non-linear")
	}
}

func TestProgramPredicates(t *testing.T) {
	p := NewProgram()
	p.AddRule(&Rule{Body: []Atom{NewAtom("p", V("X"))}, Heads: []Atom{NewAtom("q", V("X"), V("Y"))}})
	preds, err := p.Predicates()
	if err != nil {
		t.Fatal(err)
	}
	if preds["p"] != 1 || preds["q"] != 2 {
		t.Errorf("preds: %v", preds)
	}
	p.AddRule(&Rule{Body: []Atom{NewAtom("q", V("X"))}, Heads: []Atom{NewAtom("r", V("X"))}})
	if _, err := p.Predicates(); err == nil {
		t.Error("arity clash must error")
	}
}

// TestEvalConditionNullSemantics is the table of the one comparison rule
// (CmpOp.Holds), run both directly and through EvalCondition: labelled
// nulls are plain symbols, an Int and a Float compare numerically, NaN
// ties with every number under term.Compare, and sets order by their
// canonical text (after every number, by kind).
func TestEvalConditionNullSemantics(t *testing.T) {
	env := map[string]term.Value{
		"N": term.Null(1), "M": term.Null(2), "X": term.Int(5),
		"I": term.Int(1), "F": term.Float(1), "NaN": term.Float(math.NaN()),
		"S": term.Set([]term.Value{term.String("a")}),
		"T": term.Set([]term.Value{term.String("a"), term.String("b")}),
	}
	cases := []struct {
		l    string
		op   CmpOp
		r    string
		want bool
	}{
		{"N", CmpEq, "N", true}, {"N", CmpEq, "M", false}, {"N", CmpNeq, "M", true},
		{"N", CmpNeq, "X", true}, {"N", CmpLt, "X", false}, {"N", CmpGt, "X", false},
		{"N", CmpLe, "N", false}, {"X", CmpGe, "N", false},
		{"I", CmpEq, "F", true}, {"I", CmpNeq, "F", false}, {"I", CmpLt, "F", false},
		{"I", CmpLe, "F", true}, {"F", CmpGe, "I", true}, {"X", CmpGt, "F", true},
		{"NaN", CmpEq, "NaN", false}, {"NaN", CmpNeq, "NaN", true}, {"NaN", CmpEq, "X", false},
		{"NaN", CmpLt, "X", false}, {"NaN", CmpGt, "X", false},
		{"NaN", CmpLe, "X", true}, {"X", CmpGe, "NaN", true},
		{"S", CmpEq, "S", true}, {"S", CmpEq, "T", false}, {"S", CmpNeq, "T", true},
		{"S", CmpGt, "T", true}, {"S", CmpLt, "T", false}, {"S", CmpGt, "X", true},
		{"S", CmpNeq, "X", true}, {"S", CmpEq, "N", false}, {"S", CmpLe, "N", false},
	}
	for _, c := range cases {
		if got := c.op.Holds(env[c.l], env[c.r]); got != c.want {
			t.Errorf("%s %s %s: Holds = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
		got, err := EvalCondition(Condition{Op: c.op, L: VarExpr{Name: c.l}, R: VarExpr{Name: c.r}}, env)
		if err != nil || got != c.want {
			t.Errorf("%s %s %s: EvalCondition = %v (err %v), want %v", c.l, c.op, c.r, got, err, c.want)
		}
	}
}

func TestExprVars(t *testing.T) {
	e := BinExpr{Op: "+", L: VarExpr{Name: "X"}, R: FuncExpr{Name: "abs", Args: []Expr{VarExpr{Name: "Y"}}}}
	vs := e.Vars(nil)
	if len(vs) != 2 {
		t.Errorf("vars: %v", vs)
	}
}

func TestBuiltins(t *testing.T) {
	env := map[string]term.Value{"S": term.String("hello"), "X": term.Int(-3)}
	cases := []struct {
		expr Expr
		want term.Value
	}{
		{FuncExpr{Name: "length", Args: []Expr{VarExpr{Name: "S"}}}, term.Int(5)},
		{FuncExpr{Name: "upper", Args: []Expr{VarExpr{Name: "S"}}}, term.String("HELLO")},
		{FuncExpr{Name: "startsWith", Args: []Expr{VarExpr{Name: "S"}, ConstExpr{Val: term.String("he")}}}, term.Bool(true)},
		{FuncExpr{Name: "abs", Args: []Expr{VarExpr{Name: "X"}}}, term.Int(3)},
		{FuncExpr{Name: "substring", Args: []Expr{VarExpr{Name: "S"}, ConstExpr{Val: term.Int(1)}, ConstExpr{Val: term.Int(3)}}}, term.String("el")},
		{FuncExpr{Name: "toString", Args: []Expr{VarExpr{Name: "X"}}}, term.String("-3")},
		{FuncExpr{Name: "min", Args: []Expr{VarExpr{Name: "X"}, ConstExpr{Val: term.Int(0)}}}, term.Int(-3)},
	}
	for _, c := range cases {
		got, err := c.expr.Eval(env)
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: got %v want %v", c.expr, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	env := map[string]term.Value{"X": term.Int(1), "Z": term.Int(0)}
	_, err := BinExpr{Op: "/", L: VarExpr{Name: "X"}, R: VarExpr{Name: "Z"}}.Eval(env)
	if err == nil {
		t.Error("integer division by zero must error")
	}
}
