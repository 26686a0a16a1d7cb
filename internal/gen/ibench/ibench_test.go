package ibench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/parser"
	"repro/internal/pipeline"
)

// TestPresetStatistics checks the generated rule sets against the
// statistics the paper reports for STB-128 and ONT-256.
func TestPresetStatistics(t *testing.T) {
	for _, tc := range []struct {
		cfg      Config
		rules    int
		existMin int
		harmful  int
		predsMin int
		queries  int
	}{
		{STB128(), 250, 62, 15, 112, 16},
		{ONT256(), 789, 276, 295, 220, 11},
	} {
		cfg := tc.cfg
		cfg.FactsPerSource = 10
		g := Generate(cfg)
		if got := g.RuleCount(); got != tc.rules {
			t.Errorf("%s: %d rules, want %d", cfg.Name, got, tc.rules)
		}
		prog, err := parser.Parse(g.Source)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		st := analysis.ComputeStats(analysis.Analyze(prog), analysis.Condense(prog, nil))
		if st.ExistentialRules < tc.existMin {
			t.Errorf("%s: %d existential rules, want ≥ %d", cfg.Name, st.ExistentialRules, tc.existMin)
		}
		if st.HarmfulJoins != tc.harmful {
			t.Errorf("%s: %d harmful joins, want %d", cfg.Name, st.HarmfulJoins, tc.harmful)
		}
		preds, _ := prog.Predicates()
		if len(preds) < tc.predsMin {
			t.Errorf("%s: %d predicates, want ≥ %d", cfg.Name, len(preds), tc.predsMin)
		}
		if len(g.Queries) != tc.queries {
			t.Errorf("%s: %d queries, want %d", cfg.Name, len(g.Queries), tc.queries)
		}
		res := analysis.Analyze(prog)
		if !res.Warded {
			t.Errorf("%s: not warded: %v", cfg.Name, res.Violations[:min(3, len(res.Violations))])
		}
	}
}

// TestScenariosRunWithAnswers materializes both scenarios at small scale
// and checks queries return answers.
func TestScenariosRunWithAnswers(t *testing.T) {
	for _, cfg := range []Config{STB128(), ONT256()} {
		cfg.FactsPerSource = 50
		g := Generate(cfg)
		withAnswers := 0
		for qi := 0; qi < 4; qi++ {
			prog, err := parser.Parse(g.Source + g.Queries[qi])
			if err != nil {
				t.Fatal(err)
			}
			s, err := pipeline.New(prog, pipeline.Options{MaxDerivations: 2_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(context.Background(), g.Facts); err != nil {
				t.Fatalf("%s q%d: %v", cfg.Name, qi, err)
			}
			if len(s.Output(fmt.Sprintf("ans%d", qi))) > 0 {
				withAnswers++
			}
		}
		if withAnswers < 2 {
			t.Errorf("%s: only %d/4 queries returned answers", cfg.Name, withAnswers)
		}
	}
}
