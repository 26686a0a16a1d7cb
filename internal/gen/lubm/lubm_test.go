package lubm

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/parser"
	"repro/internal/pipeline"
)

func TestOntologyParsesAndIsWarded(t *testing.T) {
	prog, err := parser.Parse(Ontology)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(prog)
	if !res.Warded {
		t.Fatalf("ontology not warded: %v", res.Violations)
	}
	st := analysis.ComputeStats(res, analysis.Condense(prog, nil))
	if st.ExistentialRules < 2 {
		t.Errorf("ontology needs existential axioms, got %d", st.ExistentialRules)
	}
}

func TestQueriesParse(t *testing.T) {
	qs := Queries()
	if len(qs) != 14 {
		t.Fatalf("queries: %d, want 14", len(qs))
	}
	for i, q := range qs {
		if _, err := parser.Parse(Ontology + q); err != nil {
			t.Errorf("q%d: %v", i+1, err)
		}
	}
}

func TestGenerateScale(t *testing.T) {
	facts := Generate(Config{Universities: 2, Seed: 1})
	perUni := len(facts) / 2
	if perUni < 3500 || perUni > 8000 {
		t.Errorf("facts per university: %d (constant says %d)", perUni, FactsPerUniversity)
	}
}

func TestQueriesReturnAnswers(t *testing.T) {
	facts := Generate(Config{Universities: 1, Seed: 2})
	nonEmpty := 0
	for qi, q := range Queries() {
		prog := parser.MustParse(Ontology + q)
		s, err := pipeline.New(prog, pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background(), facts); err != nil {
			t.Fatalf("q%d: %v", qi+1, err)
		}
		if len(s.Output(fmt.Sprintf("q%d", qi+1))) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 10 {
		t.Errorf("only %d/14 queries returned answers", nonEmpty)
	}
}
