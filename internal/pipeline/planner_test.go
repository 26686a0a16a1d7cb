package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen/dbpedia"
	"repro/internal/gen/graphs"
	"repro/internal/parser"
	"repro/internal/term"
)

// sessionBytes renders a session's final database byte-exactly (the
// pipeline counterpart of the chase tests' dbBytes): same facts in the
// same stored order with the same null identities iff the runs agree.
func sessionBytes(s *Session) string {
	var sb strings.Builder
	for _, pred := range s.DB().Predicates() {
		rel := s.DB().Lookup(pred)
		fmt.Fprintf(&sb, "%s[%d]\n", pred, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			m := rel.At(i)
			if m.Retracted {
				sb.WriteString("  x ")
			} else {
				sb.WriteString("    ")
			}
			sb.WriteString(m.Fact.String())
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintf(&sb, "derivations=%d nulls=%d\n", s.Derivations(), s.DB().Nulls.Count())
	return sb.String()
}

func plannerScenarios(t *testing.T) []struct {
	name  string
	src   string
	facts []ast.Fact
} {
	t.Helper()
	ownership := graphs.ScaleFree(100, graphs.PaperParams(), 2)
	persons := dbpedia.Generate(dbpedia.Config{Companies: 40, Persons: 120,
		KeyPersonRate: 1.2, ControlRate: 0.4, Seed: 9})
	return []struct {
		name  string
		src   string
		facts []ast.Fact
	}{
		{"companycontrol", graphs.ControlProgram, ownership.OwnFacts()},
		{"allpsc", dbpedia.AllPSCProgram, persons.All()},
		{"stronglinks", dbpedia.StrongLinksProgram(3), persons.All()},
	}
}

func runSession(t *testing.T, src string, facts []ast.Fact, opts Options, worst bool) *Session {
	t.Helper()
	prog := parser.MustParse(src)
	s, err := New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if worst {
		s.Planner().Worst = true
	}
	if err := s.Run(context.Background(), facts); err != nil {
		t.Fatalf("run: %v", err)
	}
	return s
}

// TestPipelinePlannerByteIdentical: the pipeline admits each firing's
// candidates in canonical order whatever schedule enumerated them, so the
// planner on, off, or adversarially inverted (worst-case joins) all
// produce byte-identical databases.
func TestPipelinePlannerByteIdentical(t *testing.T) {
	for _, sc := range plannerScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			base := sessionBytes(runSession(t, sc.src, sc.facts, Options{DisablePlanner: true}, false))
			if len(base) < 40 {
				t.Fatalf("vacuous database: %q", base)
			}
			if got := sessionBytes(runSession(t, sc.src, sc.facts, Options{}, false)); got != base {
				t.Errorf("planner on diverges from planner off (%d vs %d bytes)", len(got), len(base))
			}
			if got := sessionBytes(runSession(t, sc.src, sc.facts, Options{}, true)); got != base {
				t.Errorf("worst-case plans diverge from planner off (%d vs %d bytes)", len(got), len(base))
			}
		})
	}
}

// TestPipelineExplain: Explain annotates planned rules with join orders
// and estimates, and falls back to the plain access plan when the planner
// is disabled.
func TestPipelineExplain(t *testing.T) {
	src := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		@output("path").
	`
	edb := []ast.Fact{
		ast.NewFact("edge", term.String("a"), term.String("b")),
		ast.NewFact("edge", term.String("b"), term.String("c")),
	}
	s := runSession(t, src, edb, Options{}, false)
	out := s.Explain()
	for _, want := range []string{"reasoning access plan", "Δpath: path* ⋈ edge(est", "rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	off := runSession(t, src, edb, Options{DisablePlanner: true}, false)
	if out := off.Explain(); strings.Contains(out, "est") {
		t.Errorf("disabled planner must render the plain plan:\n%s", out)
	}
}

// TestPipelinePlannerAdaptive: a fixpoint long enough to cross the
// re-planning stride derives plans and revalidates them as statistics
// generations advance.
func TestPipelinePlannerAdaptive(t *testing.T) {
	sc := plannerScenarios(t)[0]
	s := runSession(t, sc.src, sc.facts, Options{}, false)
	if s.Planner() == nil {
		t.Fatal("planner missing")
	}
	if s.Planner().Derives() == 0 {
		t.Error("no plans derived")
	}
}
