package chase

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/term"
)

// TestWarmBatchAllocations pins the batch scratch: tasks, the one binding
// log every task captures into and the canonical order grow amortized, so
// once a batch of some size has run, a batch of the same deltas —
// scheduled, planned, captured, ordered and replayed, every candidate a
// duplicate of a stored fact — allocates nothing. That holds too when two
// rules share a body and the member firings replay the shared ranges.
func TestWarmBatchAllocations(t *testing.T) {
	const n = 300
	var edb []ast.Fact
	for i := 0; i < n; i++ {
		edb = append(edb, ast.NewFact("e", term.Int(int64(i%40)), term.Int(int64((i*7+3)%40))))
	}
	const chain = `e(X,Y), e(Y,Z) -> p(X,Z).  p(X,Y) -> q(Y).`
	const shared = `e(X,Y), e(Y,Z) -> p(X,Z).  e(X,Y), e(Y,Z), X > Z -> r(X,Z).`
	for _, tc := range []struct {
		name string
		src  string
		o    Options
	}{
		{"planner", chain, Options{}},
		{"static", chain, Options{DisablePlanner: true}},
		{"shared body", shared, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(parser.MustParse(tc.src), tc.o)
			if err != nil {
				t.Fatal(err)
			}
			e := c.NewEngine()
			ctx := context.Background()
			if _, err := e.Run(ctx, edb); err != nil {
				t.Fatal(err)
			}
			// Every stored fact again as a delta: the batch re-derives only
			// what is stored already.
			var deltas []*core.FactMeta
			for _, pred := range []string{"e", "p"} {
				rel := e.DB().Lookup(pred)
				for i := 0; i < rel.Len(); i++ {
					deltas = append(deltas, rel.At(i))
				}
			}
			if len(deltas) > maxBatchDeltas {
				t.Fatalf("%d deltas do not fit one batch", len(deltas))
			}
			stored, shared := e.Derivations(), e.shared
			queue := make([]*core.FactMeta, 0, len(deltas))
			allocs := testing.AllocsPerRun(5, func() {
				e.queues[0] = append(queue[:0], deltas...)
				if err := e.step(ctx); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("a warm batch of %d deltas costs %.0f allocations, want 0", len(deltas), allocs)
			}
			if e.Derivations() != stored || !e.Quiesced() {
				t.Errorf("the repeated batch admitted %d facts, want none", e.Derivations()-stored)
			}
			if e.log.Len() == 0 {
				t.Error("the batch captured no candidates: the pin measures nothing")
			}
			if len(c.groups) > 0 && e.shared == shared {
				t.Error("no member replayed a shared range: the pin measures no sharing")
			}
		})
	}
}
