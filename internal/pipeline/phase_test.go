package pipeline

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// fanoutProgram joins three atoms so firings take the buffered
// canonical-order path (capture, canonical order, replay), where matching
// and admission are separate phases.
const fanoutProgram = `
	t(X), a(X,Y), b(Y,Z) -> out(X,Y,Z).
	out(X,Y,Z), a(X,Y), b(Y,W) -> out2(X,Y,W).
	@output("out").
	@output("out2").
`

func fanoutFacts(wide int) []ast.Fact {
	var facts []ast.Fact
	facts = append(facts, ast.NewFact("t", term.String("x")))
	for y := 0; y < wide; y++ {
		ys := term.String(fmt.Sprintf("y%03d", y))
		facts = append(facts, ast.NewFact("a", term.String("x"), ys))
		for z := 0; z < wide; z++ {
			facts = append(facts, ast.NewFact("b", ys, term.String(fmt.Sprintf("z%03d", z))))
		}
	}
	return facts
}

// TestPipelinePhaseTiming: with PhaseTiming on, wall time lands in the
// phase clocks (fused firings count as match).
func TestPipelinePhaseTiming(t *testing.T) {
	prog, err := parser.Parse(fanoutProgram)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := New(prog, Options{PhaseTiming: true})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := s.Run(context.Background(), fanoutFacts(12)); err != nil {
		t.Fatalf("run: %v", err)
	}
	match, _, admit := s.PhaseStats()
	if match <= 0 {
		t.Errorf("no match time recorded: %v", match)
	}
	if admit <= 0 {
		t.Errorf("no admit time recorded: %v", admit)
	}
}
