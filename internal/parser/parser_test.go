package parser

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

func TestParseBasicRule(t *testing.T) {
	r, err := ParseRule(`own(X,Y,W), W > 0.5 -> control(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Body) != 1 || r.Body[0].Pred != "own" {
		t.Fatalf("body: %v", r.Body)
	}
	if len(r.Conds) != 1 || r.Conds[0].Op != ast.CmpGt {
		t.Fatalf("conds: %v", r.Conds)
	}
	if len(r.Heads) != 1 || r.Heads[0].Pred != "control" {
		t.Fatalf("heads: %v", r.Heads)
	}
}

func TestParseExistential(t *testing.T) {
	r, err := ParseRule(`company(X) -> keyPerson(P, X).`)
	if err != nil {
		t.Fatal(err)
	}
	ex := r.Existentials()
	if len(ex) != 1 || ex[0] != "P" {
		t.Fatalf("existentials: %v", ex)
	}
}

func TestParseAggregate(t *testing.T) {
	r, err := ParseRule(`control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Aggregate == nil || r.Aggregate.Func != "msum" || r.Aggregate.Result != "V" {
		t.Fatalf("aggregate: %+v", r.Aggregate)
	}
	if len(r.Aggregate.Contributors) != 1 || r.Aggregate.Contributors[0] != "Y" {
		t.Fatalf("contributors: %v", r.Aggregate.Contributors)
	}
}

func TestParseConstraintAndEGD(t *testing.T) {
	r, err := ParseRule(`own(X,X,W) -> #fail.`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsConstraint {
		t.Fatal("expected constraint")
	}
	r, err = ParseRule(`p(X,Y), p(X,Z) -> Y = Z.`)
	if err != nil {
		t.Fatal(err)
	}
	if r.EGD == nil || r.EGD.Left != "Y" || r.EGD.Right != "Z" {
		t.Fatalf("egd: %+v", r.EGD)
	}
}

func TestParseDomGuards(t *testing.T) {
	r, err := ParseRule(`dom(*), p(X,Y) -> q(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.UsesDom {
		t.Fatal("dom(*) not recognized")
	}
	r, err = ParseRule(`dom(Y), p(X,Y) -> q(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.DomVars) != 1 || r.DomVars[0] != "Y" {
		t.Fatalf("dom vars: %v", r.DomVars)
	}
}

func TestParseAnnotations(t *testing.T) {
	prog, err := Parse(`
		@input("own").
		@output("control").
		@bind("own","csv","/tmp/own.csv").
		@post("control","orderBy",2).
		@mapping("own","src","dst","w").
		own(X,Y,W) -> control(X,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Inputs["own"] || !prog.Outputs["control"] {
		t.Error("input/output lost")
	}
	if len(prog.Bindings) != 1 || prog.Bindings[0].Target != "/tmp/own.csv" {
		t.Errorf("bindings: %v", prog.Bindings)
	}
	if len(prog.Posts) != 1 || prog.Posts[0].Arg != 2 {
		t.Errorf("posts: %v", prog.Posts)
	}
	if len(prog.Mappings) != 1 || len(prog.Mappings[0].Columns) != 3 {
		t.Errorf("mappings: %v", prog.Mappings)
	}
	if prog.Bindings[0].Query != "" {
		t.Errorf("@bind grew a query: %q", prog.Bindings[0].Query)
	}
	if prog.Bindings[0].Line != 4 || prog.Mappings[0].Line != 6 {
		t.Errorf("positions: bind %d:%d mapping %d:%d",
			prog.Bindings[0].Line, prog.Bindings[0].Col, prog.Mappings[0].Line, prog.Mappings[0].Col)
	}
}

func TestParseQbind(t *testing.T) {
	prog, err := Parse(`
		@qbind("own","csv","/tmp/own.csv","$3 > 0.5").
		own(X,Y,W) -> control(X,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Bindings) != 1 {
		t.Fatalf("bindings: %v", prog.Bindings)
	}
	b := prog.Bindings[0]
	if b.Query != "$3 > 0.5" || b.Driver != "csv" || b.Pred != "own" {
		t.Errorf("qbind binding: %+v", b)
	}
	// The query argument is mandatory and distinct from @bind.
	for _, bad := range []string{
		`@qbind("own","csv","/tmp/own.csv").`,
		`@qbind("own","csv","/tmp/own.csv","").`,
		`@bind("own","csv","/tmp/own.csv","$1 > 0").`,
	} {
		if _, err := Parse(bad + "\nown(X,Y,W) -> control(X,Y)."); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
	// The rendered program re-parses with the query intact.
	re, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(re.Bindings) != 1 || re.Bindings[0].Query != "$3 > 0.5" {
		t.Errorf("reparse bindings: %+v", re.Bindings)
	}
}

func TestParseFacts(t *testing.T) {
	prog, err := Parse(`
		own(acme, subco, 0.7).
		own("Quoted Co", other, -3).
		flag(x, #t).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 3 {
		t.Fatalf("facts: %v", prog.Facts)
	}
	if prog.Facts[1].Args[0] != term.String("Quoted Co") {
		t.Errorf("quoted: %v", prog.Facts[1])
	}
	if prog.Facts[1].Args[2] != term.Int(-3) {
		t.Errorf("negative: %v", prog.Facts[1])
	}
	if prog.Facts[2].Args[1] != term.Bool(true) {
		t.Errorf("bool: %v", prog.Facts[2])
	}
}

func TestParseNegation(t *testing.T) {
	r, err := ParseRule(`node(X), not bad(X) -> good(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Body[1].Negated {
		t.Fatal("negation lost")
	}
}

func TestParseExpressions(t *testing.T) {
	r, err := ParseRule(`emp(N,S), T = S * 2 + 1 -> out(N, T).`)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]term.Value{"S": term.Int(10)}
	v, err := r.Assignments[0].Expr.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if v != term.Int(21) {
		t.Errorf("precedence: got %v want 21", v)
	}
}

func TestParsePrecedence(t *testing.T) {
	r, err := ParseRule(`p(A,B,C), T = A + B * C -> q(T).`)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]term.Value{"A": term.Int(1), "B": term.Int(2), "C": term.Int(3)}
	v, err := r.Assignments[0].Expr.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if v != term.Int(7) {
		t.Errorf("1+2*3: got %v", v)
	}
}

func TestParseSkolemCall(t *testing.T) {
	r, err := ParseRule(`p(X), Z = #f(X, 1) -> q(Z).`)
	if err != nil {
		t.Fatal(err)
	}
	fe, ok := r.Assignments[0].Expr.(ast.FuncExpr)
	if !ok || !fe.IsSkolem() || fe.Name != "#f" {
		t.Fatalf("skolem expr: %#v", r.Assignments[0].Expr)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`p(X) -> q(X)`,                    // missing dot
		`p(X) q(X).`,                      // missing arrow
		`p(X,) -> q(X).`,                  // trailing comma
		`p(X) -> q(Y), Y = Z.`,            // EGD mixed with atoms
		`-> q(a).`,                        // empty body is not a rule
		`p(X), T = T + 1 -> q(T).`,        // self-referential assignment
		`node(X), not bad(Y) -> good(X).`, // unsafe negation
		`p(X), Y > 1 -> q(X).`,            // unbound condition var
		`p("unterminated) -> q(X).`,       // bad string
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	prog, err := Parse(`
		% a comment
		p(X) -> q(X). % trailing comment
		% final comment
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Fatalf("rules: %d", len(prog.Rules))
	}
}

func TestParseModulo(t *testing.T) {
	r, err := ParseRule(`p(X), M = X %% 3 -> q(M).`)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]term.Value{"X": term.Int(10)}
	v, err := r.Assignments[0].Expr.Eval(env)
	if err != nil || v != term.Int(1) {
		t.Errorf("10 %% 3: %v %v", v, err)
	}
}

// TestRoundTrip parses, renders and reparses programs, checking the
// rendered forms converge (String is a faithful printer).
func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`own(X,Y,W), W > 0.5 -> control(X,Y).`,
		`company(X) -> keyPerson(P, X).`,
		`p(X,Y), p(X,Z) -> Y = Z.`,
		`own(X,X,W) -> #fail.`,
		`node(X), not bad(X) -> good(X).`,
		`dom(*), p(X,Y) -> q(X,Y).`,
		`control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).`,
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rendered := p1.String()
		p2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse %q: %v", rendered, err)
		}
		if got := p2.String(); got != rendered {
			t.Errorf("round trip diverges:\n%s\nvs\n%s", rendered, got)
		}
	}
}

func TestArityMismatchRejected(t *testing.T) {
	// Parse itself accepts arity drift (the lint layer reports it per use
	// site as A001); Predicates(), which every engine consults at compile
	// time, rejects it.
	prog, err := Parse(`
		p(X) -> q(X).
		p(X,Y) -> r(X).
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := prog.Predicates(); err == nil || !strings.Contains(err.Error(), "arities") {
		t.Fatalf("want arity error from Predicates, got %v", err)
	}
}

// TestAnonymousHeadVariableRefused: a head position must have a value, so
// _ in a head is a positioned parse error naming the head atom — not a
// rule that parses, vets clean and fails when it first fires.
func TestAnonymousHeadVariableRefused(t *testing.T) {
	_, err := Parse("p(2,5).\np(A,B) -> r(A,_).")
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("parse: %v, want a *parser.Error", err)
	}
	if pe.Line != 2 || pe.Col != 15 || !strings.Contains(pe.Msg, "head atom r(A,_)") {
		t.Fatalf("error %q at %d:%d, want one naming head atom r(A,_) at 2:15", pe.Msg, pe.Line, pe.Col)
	}
	if _, err := Parse(`p(A,_) -> r(A).`); err != nil {
		t.Errorf("_ in a body atom: %v", err)
	}
}

// TestUnderscoreNamesAreVariables: as in Prolog, every _-initial name is a
// variable, shared by its occurrences; only _ itself is anonymous. A
// string constant starting with _ renders quoted and reparses as one.
func TestUnderscoreNamesAreVariables(t *testing.T) {
	r, err := ParseRule(`p(_anon0_1, _), q(_anon0_1), s("_x") -> r(_anon0_1).`)
	if err != nil {
		t.Fatal(err)
	}
	if a := r.Body[0].Args[0]; !a.IsVar || a.Var != "_anon0_1" {
		t.Fatalf("p's first argument: %+v, want variable _anon0_1", a)
	}
	if got := r.BodyVars(); !slices.Equal(got, []string{"_anon0_1"}) {
		t.Errorf("body variables %v, want [_anon0_1]", got)
	}
	if a := r.Body[2].Args[0]; a.IsVar || a.Const != term.String("_x") {
		t.Errorf("s's argument: %+v, want the string constant _x", a)
	}
	if got, want := r.String(), `p(_anon0_1,_), q(_anon0_1), s("_x") -> r(_anon0_1).`; got != want {
		t.Errorf("rendered %s, want %s", got, want)
	}
}
