package analysis

import (
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// TestPaperExample4 checks the affected-position and variable-class
// analysis on paper Example 4.
func TestPaperExample4(t *testing.T) {
	prog := parser.MustParse(`
		p(X) -> q(Z, X).
		q(X, Y), p(Y) -> t(X).
	`)
	res := Analyze(prog)
	if !res.Warded {
		t.Fatalf("example 4 is warded: %v", res.Violations)
	}
	if !res.Affected[Position{"q", 0}] {
		t.Error("q[0] must be affected (existential z)")
	}
	if res.Affected[Position{"q", 1}] {
		t.Error("q[1] must not be affected")
	}
	// In rule 2, X is dangerous (harmful + in head), Y harmless.
	ri := res.Rules[1]
	if ri.Classes["X"] != Dangerous {
		t.Errorf("X: %v, want dangerous", ri.Classes["X"])
	}
	if ri.Classes["Y"] != Harmless {
		t.Errorf("Y: %v, want harmless", ri.Classes["Y"])
	}
	if ri.WardIdx != 0 {
		t.Errorf("ward should be q (body atom 0), got %d", ri.WardIdx)
	}
	if ri.Kind != KindWarded {
		t.Errorf("rule 2 kind: %v", ri.Kind)
	}
}

// TestPaperExample5 checks the more complex PSC example: rule 4 has a
// harmful (but not dangerous) join on P.
func TestPaperExample5(t *testing.T) {
	prog := parser.MustParse(`
		keyPerson(X, P) -> psc(X, P).
		company(X) -> psc(X, P).
		control(Y, X), psc(Y, P) -> psc(X, P).
		psc(X, P), psc(Y, P), X > Y -> strongLink(X, Y).
	`)
	res := Analyze(prog)
	if !res.Warded {
		t.Fatalf("example 5 is warded: %v", res.Violations)
	}
	if !res.Affected[Position{"psc", 1}] {
		t.Error("psc[1] must be affected")
	}
	r3 := res.Rules[2]
	if r3.Classes["P"] != Dangerous {
		t.Errorf("rule 3 P: %v, want dangerous", r3.Classes["P"])
	}
	if r3.WardIdx != 1 {
		t.Errorf("rule 3 ward should be psc (atom 1), got %d", r3.WardIdx)
	}
	r4 := res.Rules[3]
	if r4.Classes["P"] != Harmful {
		t.Errorf("rule 4 P: %v, want harmful (not dangerous)", r4.Classes["P"])
	}
	if !r4.HasHarmfulJoin {
		t.Error("rule 4 has a harmful join")
	}
}

// TestNonWardedDetected: a ward sharing a harmful variable with another
// atom whose position is also affected (weakly-frontier-guarded shape).
func TestNonWardedDetected(t *testing.T) {
	prog := parser.MustParse(`
		a(X) -> p(X, Z).
		a(X) -> w(X, Z, V).
		w(X, Z, V), p(Y, Z) -> r(V, X, Y).
	`)
	// V is dangerous in rule 3 (ward w), but w shares the harmful Z with
	// p: wardedness is violated.
	res := Analyze(prog)
	if res.Warded {
		t.Fatal("program should not be warded")
	}
}

// TestMixedJoinGroundsVariable: joining an affected position against an
// EDB position makes the variable harmless (it can bind only constants).
func TestMixedJoinGroundsVariable(t *testing.T) {
	prog := parser.MustParse(`
		a(X) -> p(X, Z).
		p(X, Z), q(Z, Y) -> p(Y, Z).
	`)
	res := Analyze(prog)
	if !res.Warded {
		t.Fatalf("mixed join is harmless: %v", res.Violations)
	}
	if res.Rules[1].Classes["Z"] != Harmless {
		t.Errorf("Z: %v, want harmless (occurs in EDB position)", res.Rules[1].Classes["Z"])
	}
}

// TestWeaklyFrontierGuardedNotWarded: ward sharing a harmful variable.
func TestWardSharingHarmfulRejected(t *testing.T) {
	prog := parser.MustParse(`
		a(X) -> p(X, Z).
		a(X) -> q(X, Z).
		p(X, Z), q(Y, Z) -> p(Y, Z).
	`)
	res := Analyze(prog)
	if res.Warded {
		t.Fatal("ward shares harmful variable Z: must be rejected")
	}
}

func TestDatalogIsWarded(t *testing.T) {
	// Any plain Datalog program is warded by definition.
	prog := parser.MustParse(`
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		path(X,Y), path(Y,X) -> cycle(X).
	`)
	res := Analyze(prog)
	if !res.Warded {
		t.Fatalf("plain Datalog is always warded: %v", res.Violations)
	}
	for _, ri := range res.Rules {
		for v, c := range ri.Classes {
			if c != Harmless {
				t.Errorf("var %s: %v, want harmless in plain Datalog", v, c)
			}
		}
	}
}

func TestDomGuardMakesHarmless(t *testing.T) {
	prog := parser.MustParse(`
		a(X) -> p(X, Z).
		dom(*), p(X, Z), q(Z, Y) -> r(X, Y).
	`)
	res := Analyze(prog)
	if !res.Warded {
		t.Fatalf("dom(*) grounds the join: %v", res.Violations)
	}
	if res.Rules[1].HasHarmfulJoin {
		t.Error("dom(*) should neutralize the harmful join")
	}
}

func TestSCCsAndRecursion(t *testing.T) {
	prog := parser.MustParse(`
		a(X,Y) -> b(X,Y).
		b(X,Y) -> c(X,Y).
		c(X,Y), a(Y,Z) -> b(X,Z).
		c(X,Y) -> d(X,Y).
		e(X) -> e(X).
	`)
	g := Condense(prog, nil)
	comp := func(pred string) int { return g.Comp[g.index[pred]] }
	for pred, want := range map[string]bool{"a": false, "b": true, "c": true, "d": false, "e": true} {
		if got := g.InCycle(pred); got != want {
			t.Errorf("InCycle(%s) = %v, want %v", pred, got, want)
		}
	}
	if comp("b") != comp("c") {
		t.Errorf("b and c share a cycle but not a component: %d, %d", comp("b"), comp("c"))
	}
	// Topological numbering: a feeds {b,c}, which feeds d.
	if !(comp("a") < comp("b") && comp("c") < comp("d")) {
		t.Errorf("components out of topological order: a=%d b=%d d=%d", comp("a"), comp("b"), comp("d"))
	}
	if n := len(g.Recursive); n != 4 {
		t.Errorf("%d components, want 4 (a, {b,c}, d, e)", n)
	}
}

func TestStratification(t *testing.T) {
	prog := parser.MustParse(`
		node(X), not bad(X) -> good(X).
		edge(X,Y) -> node(X).
		good(X), edge(X,Y) -> reach(Y).
	`)
	strata, err := Stratify(prog)
	if err != nil {
		t.Fatal(err)
	}
	if strata["good"] <= strata["bad"]-1 && strata["good"] < strata["bad"]+1 {
		// good must be strictly above bad.
	}
	if strata["good"] < strata["bad"]+1 {
		t.Errorf("good (%d) must be above bad (%d)", strata["good"], strata["bad"])
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	prog := parser.MustParse(`
		p(X), not q(X) -> q(X).
	`)
	if _, err := Stratify(prog); err == nil {
		t.Fatal("negation through recursion must be rejected")
	}
	// Several offending predicates are named in sorted order, on every run.
	prog = parser.MustParse(`
		p(X), not zq(X) -> r(X).  r(X) -> zq(X).
		p(X), not aq(X) -> s(X).  s(X) -> aq(X).
		p(X), not mq(X) -> t(X).  t(X) -> mq(X).
	`)
	for i := 0; i < 10; i++ {
		_, err := Stratify(prog)
		if want := "analysis: negation through recursive predicate aq, mq, zq is not stratified"; err == nil || err.Error() != want {
			t.Fatalf("run %d: %v, want %q", i, err, want)
		}
	}
}

func TestComputeStatsCategories(t *testing.T) {
	prog := parser.MustParse(`
		e(X,Y) -> w(X,P).
		w(X,P), e(X,Y) -> w(Y,P).
		w(X,P), w(Y,P) -> gh(X,Y).
		w(X,P), e(P,Z) -> gm(X,Z).
		e(X,Y), e(Y,Z) -> gn(X,Z).
	`)
	st := ComputeStats(Analyze(prog), Condense(prog, nil))
	if st.LinearRules != 1 || st.JoinRules != 4 {
		t.Errorf("rule counts: L=%d J=%d", st.LinearRules, st.JoinRules)
	}
	if st.HarmlessWithWard != 1 {
		t.Errorf("ward joins: %d", st.HarmlessWithWard)
	}
	if st.HarmfulJoins != 1 {
		t.Errorf("harmful joins: %d", st.HarmfulJoins)
	}
	if st.MixedJoins != 1 {
		t.Errorf("mixed joins: %d", st.MixedJoins)
	}
	if st.HarmlessNoWard != 1 {
		t.Errorf("plain joins: %d", st.HarmlessNoWard)
	}
	if st.ExistentialRules != 1 {
		t.Errorf("existential rules: %d", st.ExistentialRules)
	}
	if st.RecursiveJoin != 1 {
		t.Errorf("recursive joins: %d", st.RecursiveJoin)
	}
}

func TestAffectedPropagation(t *testing.T) {
	// Nulls flow a -> b -> c through linear rules.
	prog := parser.MustParse(`
		src(X) -> a(X, Z).
		a(X, Z) -> b(Z, X).
		b(Z, X) -> c(X, Z).
	`)
	res := Analyze(prog)
	for _, pos := range []Position{{"a", 1}, {"b", 0}, {"c", 1}} {
		if !res.Affected[pos] {
			t.Errorf("%v must be affected", pos)
		}
	}
	for _, pos := range []Position{{"a", 0}, {"b", 1}, {"c", 0}} {
		if res.Affected[pos] {
			t.Errorf("%v must not be affected", pos)
		}
	}
}

// TestReanalyzeReuses pins what Reanalyze takes over from a prior analysis:
// the RuleInfo of a rule that is the same pointer at the same position,
// when the affected positions agree; nothing when they do not. Either way
// the result deep-equals Analyze of the new program.
func TestReanalyzeReuses(t *testing.T) {
	prog := parser.MustParse(`
		p(X) -> q(Z, X).
		q(X, Y), p(Y) -> t(X).
		t(X), s(X) -> u(X).
	`)
	prior := Analyze(prog)
	swap := func(i int, src string) *ast.Program {
		next := *prog
		next.Rules = append([]*ast.Rule(nil), prog.Rules...)
		r := *parser.MustParse(src).Rules[0]
		r.ID = i
		next.Rules[i] = &r
		return &next
	}
	cases := []struct {
		name  string
		prog  *ast.Program
		reuse []bool // per rule: prior's RuleInfo taken over
	}{
		{"same program", prog, []bool{true, true, true}},
		{"one rule rewritten", swap(2, `s(X), t(X) -> u(X).`), []bool{true, true, false}},
		{"affected positions moved", swap(0, `p(X) -> q(X, X).`), []bool{false, false, false}},
	}
	for _, tc := range cases {
		got := Reanalyze(tc.prog, prior)
		if want := Analyze(tc.prog); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Reanalyze differs from Analyze", tc.name)
		}
		for i, reused := range tc.reuse {
			if (got.Rules[i] == prior.Rules[i]) != reused {
				t.Errorf("%s: rule %d reused = %v, want %v", tc.name, i, !reused, reused)
			}
		}
	}
}
