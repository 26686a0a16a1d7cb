package iwarded

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/parser"
	"repro/internal/pipeline"
)

// TestFigure6ScenarioTable verifies that the generated scenarios reproduce
// the rule statistics of Figure 6 exactly.
func TestFigure6ScenarioTable(t *testing.T) {
	for _, cfg := range Scenarios() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.FactsPerRel = 20
			g, err := Generate(cfg)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			prog, err := parser.Parse(g.Source)
			if err != nil {
				t.Fatalf("parse: %v\nsource:\n%s", err, g.Source)
			}
			res := analysis.Analyze(prog)
			if !res.Warded {
				t.Fatalf("scenario %s is not warded: %v", cfg.Name, res.Violations)
			}
			st := analysis.ComputeStats(res, analysis.Condense(prog, nil))
			checks := []struct {
				name      string
				got, want int
			}{
				{"L rules", st.LinearRules, cfg.Linear},
				{"1 rules", st.JoinRules, cfg.Join},
				{"L recursive", st.RecursiveLinear, cfg.LinearRec},
				{"1 recursive", st.RecursiveJoin, cfg.JoinRec},
				{"exist rules", st.ExistentialRules, cfg.Exist},
				{"hrml⋈hrmf", st.MixedJoins, cfg.JoinMixed},
				{"hrml⋈hrml ward", st.HarmlessWithWard, cfg.JoinWard},
				{"hrml⋈hrml no ward", st.HarmlessNoWard, cfg.JoinNoWard},
				{"hrmf⋈hrmf", st.HarmfulJoins, cfg.JoinHarmful},
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Errorf("%s: got %d want %d", c.name, c.got, c.want)
				}
			}
		})
	}
}

// TestScenariosTerminate runs every Figure 6 scenario end to end at small
// scale and checks the chase terminates with bounded derivations.
func TestScenariosTerminate(t *testing.T) {
	for _, cfg := range Scenarios() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.FactsPerRel = 30
			cfg.ComponentSize = 4
			g, err := Generate(cfg)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			prog, err := parser.Parse(g.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			s, err := pipeline.New(prog, pipeline.Options{MaxDerivations: 2_000_000})
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			if err := s.Run(context.Background(), g.Facts); err != nil {
				t.Fatalf("run: %v", err)
			}
			if s.Derivations() == 0 {
				t.Fatal("no derivations at all")
			}
		})
	}
}

func TestBlocksScaling(t *testing.T) {
	cfg, _ := Scenario("synthB")
	cfg.FactsPerRel = 10
	cfg.Blocks = 3
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	prog, err := parser.Parse(g.Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got, want := len(prog.Rules), 3*100; got != want {
		t.Fatalf("blocks: got %d rules, want %d", got, want)
	}
}

func TestAtomAndArityScaling(t *testing.T) {
	cfg, _ := Scenario("synthB")
	cfg.FactsPerRel = 10
	cfg.ExtraBodyAtoms = 2
	cfg.Arity = 4
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	prog, err := parser.Parse(g.Source)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, g.Source)
	}
	res := analysis.Analyze(prog)
	if !res.Warded {
		t.Fatalf("padded scenario is not warded: %v", res.Violations[:min(3, len(res.Violations))])
	}
	s, err := pipeline.New(prog, pipeline.Options{MaxDerivations: 2_000_000})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := s.Run(context.Background(), g.Facts); err != nil {
		t.Fatalf("run: %v", err)
	}
}
