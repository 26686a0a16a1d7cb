package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/term"
)

// TestPolicyRetainsNothingOfARejectedFact pins the core.Policy contract the
// engines' arenas rely on: a policy retains nothing of a fact it rejects, so
// the engine may overwrite the rejected fact's Args in place (admission
// hands them back to its arena) without changing a later decision. Every
// policy runs one fixed sequence of candidates twice — once as is, once
// with every rejected candidate's Args clobbered right after its rejection
// — and must decide alike and count alike. The sequence makes the full
// strategy learn a stop-provenance from a rejected warded fact, which is
// its own linear-forest root: the pattern S keeps for it must be a copy.
func TestPolicyRetainsNothingOfARejectedFact(t *testing.T) {
	const src = `
		c(X) -> w(X, N).
		w(X, N), e(X, Y) -> w(Y, N).
	`
	policies := []struct {
		name  string
		new   func(*analysis.Result) core.Policy
		stats func(core.Policy) any
	}{
		{"strategy", func(r *analysis.Result) core.Policy { return core.NewStrategy(r) },
			func(p core.Policy) any { return p.(*core.Strategy).Stats() }},
		{"trivial", func(r *analysis.Result) core.Policy { return NewTrivialIso(r) },
			func(p core.Policy) any { q := p.(*TrivialIso); return [2]int{q.Checks, q.StoredFacts()} }},
		{"restricted", func(r *analysis.Result) core.Policy { return NewRestrictedHom(r) },
			func(p core.Policy) any { q := p.(*RestrictedHom); return [2]int{q.Checks, q.Scanned} }},
		{"skolem", func(r *analysis.Result) core.Policy { return NewSkolemChase(r) },
			func(core.Policy) any { return nil }},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			intact, intactStats := runContractSequence(t, pc.new(analyzed(t, src)), pc.stats, false)
			clobbered, clobberedStats := runContractSequence(t, pc.new(analyzed(t, src)), pc.stats, true)
			if !reflect.DeepEqual(clobbered, intact) {
				t.Errorf("decisions after clobbering rejected Args: %v, want %v", clobbered, intact)
			}
			if !reflect.DeepEqual(clobberedStats, intactStats) {
				t.Errorf("counters after clobbering rejected Args: %+v, want %+v", clobberedStats, intactStats)
			}
		})
	}
}

// runContractSequence feeds p the contract test's candidates and returns its
// decisions and counters. With clobber, a rejected candidate's Args are
// overwritten right after the rejection, as an engine reusing them would.
func runContractSequence(t *testing.T, p core.Policy, stats func(core.Policy) any, clobber bool) ([]string, any) {
	t.Helper()
	str, null := term.String, term.Null
	metas := map[string]*core.FactMeta{
		"c(a)":   p.NewEDBFact(ast.NewFact("c", str("a"))),
		"c(b)":   p.NewEDBFact(ast.NewFact("c", str("b"))),
		"e(a,b)": p.NewEDBFact(ast.NewFact("e", str("a"), str("b"))),
	}
	steps := []struct {
		name    string
		fact    ast.Fact
		rule    int
		parents []string
	}{
		{"w1", ast.NewFact("w", str("a"), null(1)), 0, []string{"c(a)"}},
		{"w1b", ast.NewFact("w", str("b"), null(4)), 0, []string{"c(b)"}},
		// Warded, isomorphic to w1 in w1's tree: the strategy learns a
		// stop-provenance whose pattern root is this very candidate.
		{"x", ast.NewFact("w", str("a"), null(2)), 1, []string{"w1", "e(a,b)"}},
		// Linear, fresh null, subsumed by w1 (the restricted chase's cut).
		{"z", ast.NewFact("w", str("a"), null(9)), 0, []string{"c(a)"}},
		// Warded, in w1b's tree, with x's pattern: cut by the summary only.
		{"y", ast.NewFact("w", str("a"), null(3)), 1, []string{"w1b", "e(a,b)"}},
	}
	var decisions []string
	for _, st := range steps {
		parents := make([]*core.FactMeta, len(st.parents))
		for i, name := range st.parents {
			if parents[i] = metas[name]; parents[i] == nil {
				t.Fatalf("%s: parent %s was not admitted", st.name, name)
			}
		}
		m := p.Derive(st.fact, st.rule, parents)
		ok := p.CheckTermination(m)
		decisions = append(decisions, fmt.Sprintf("%s:%v", st.name, ok))
		if ok {
			metas[st.name] = m
		} else if clobber {
			for i := range st.fact.Args {
				st.fact.Args[i] = term.String("clobbered")
			}
		}
	}
	return decisions, stats(p)
}
