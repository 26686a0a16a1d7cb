package pipeline

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// edgeFacts returns edge(i,j) for about three in four ordered pairs of
// distinct nodes below n: cycles of every length, and many triangles.
func edgeFacts(n int) []ast.Fact {
	var out []ast.Fact
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && (i*7+j*3)%5 != 0 {
				out = append(out, ast.NewFact("edge", term.Int(int64(i)), term.Int(int64(j))))
			}
		}
	}
	return out
}

// pairsOf decodes a binary relation of s into (int, int) pairs.
func pairsOf(s *Session, pred string) [][2]int64 {
	var out [][2]int64
	for _, f := range s.DB().FactsOf(pred) {
		out = append(out, [2]int64{f.Args[0].IntVal(), f.Args[1].IntVal()})
	}
	return out
}

// TestBoundedFiringMatchesOnce: a filter joins a delta only against rows it
// has already consumed at the other body atoms, so every combination of body
// facts is matched exactly once — the complete matches handed to admission
// equal the distinct combinations a brute-force join counts. Without the
// bound a combination is matched again for every member still waiting in a
// cursor: three times over for the preloaded triangle.
func TestBoundedFiringMatchesOnce(t *testing.T) {
	edges := edgeFacts(9)
	t.Run("preloaded triangle", func(t *testing.T) {
		s := runPipeline(t, `edge(X,Y), edge(Y,Z), edge(Z,X) -> tri(X,Y,Z).`, edges)
		combos := 0
		e := pairsOf(s, "edge")
		for _, a := range e {
			for _, b := range e {
				for _, c := range e {
					if a[1] == b[0] && b[1] == c[0] && c[1] == a[0] {
						combos++
					}
				}
			}
		}
		if combos == 0 || s.Matches() != combos || len(s.Output("tri")) != combos {
			t.Errorf("%d complete matches, %d tri facts, for %d distinct body-fact combinations", s.Matches(), len(s.Output("tri")), combos)
		}
	})
	t.Run("recursive join", func(t *testing.T) {
		s := runPipeline(t, `
			edge(X,Y) -> path(X,Y).
			path(X,Y), edge(Y,Z) -> path(X,Z).
		`, edges)
		e := pairsOf(s, "edge")
		combos := len(e) // the linear rule: one match per edge
		for _, p := range pairsOf(s, "path") {
			for _, d := range e {
				if p[1] == d[0] {
					combos++
				}
			}
		}
		if s.Matches() != combos {
			t.Errorf("%d complete matches for %d distinct body-fact combinations", s.Matches(), combos)
		}
	})
}

// TestBoundedRules pins which rules carry the row bound: two or more
// positive atoms, no aggregate, and no atom over an aggregate head. An
// aggregate rule and a rule reading its head match against whole relations
// in every session.
func TestBoundedRules(t *testing.T) {
	c, err := Compile(parser.MustParse(`
		own(X,Y,W), W > 0.5 -> control(X,Y).
		control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
		control(X,Y), company(Y) -> held(X,Y).
		own(X,Y,W), company(Y) -> stake(X,Y).
	`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewSession()
	if err := s.Run(context.Background(), []ast.Fact{
		ast.NewFact("own", term.String("a"), term.String("b"), term.Float(0.6)),
		ast.NewFact("company", term.String("b")),
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Output("stake")) + len(s.Output("held")); got != 2 {
		t.Errorf("%d stake and held facts, want one each", got)
	}
	// Every rule fired, so each binding is the one its firings used.
	for i, cr := range c.Rules {
		want := cr.Rule.Heads[0].Pred == "stake"
		if b := s.Binding(i); c.bounded[i] != want || (b.RowBound != nil) != want {
			t.Errorf("rule %s: bounded %v, row bound %v; want %v", cr.Rule, c.bounded[i], b.RowBound, want)
		}
	}
}
