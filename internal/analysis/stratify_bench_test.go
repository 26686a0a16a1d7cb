package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/gen/ibench"
	"repro/internal/parser"
	"repro/internal/rewrite"
)

// BenchmarkStratify stratifies the rewritten iBench ONT-256 program (the
// ont-compile workload's: 789 mapping rules plus one query), the largest
// rule set the repository generates.
func BenchmarkStratify(b *testing.B) {
	cfg := ibench.ONT256()
	cfg.FactsPerSource = 1
	g := ibench.Generate(cfg)
	rw, err := rewrite.Apply(parser.MustParse(g.Source+g.Queries[2]), rewrite.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Stratify(rw.Program); err != nil {
			b.Fatal(err)
		}
	}
}
