package pipeline

import (
	"context"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
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
// positive atoms, no aggregate, and no atom over a predicate admission
// rewrites in place (admit.Compiled.InPlace). An aggregate rule and a rule
// reading a superseding aggregate head match against whole relations in
// every session; a rule reading an existential aggregate head, whose facts
// are never rewritten, is bounded. Both engines give the same answers.
func TestBoundedRules(t *testing.T) {
	own := func(x, y string, w float64) ast.Fact {
		return ast.NewFact("own", term.String(x), term.String(y), term.Float(w))
	}
	company := func(x string) ast.Fact { return ast.NewFact("company", term.String(x)) }
	for _, tc := range []struct {
		name, src string
		facts     []ast.Fact
		bounded   string         // the head predicate of the one bounded rule
		answers   map[string]int // output predicate -> its number of facts
	}{
		{"superseding aggregate head", `
			own(X,Y,W), W > 0.5 -> control(X,Y).
			control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
			control(X,Y), company(Y) -> held(X,Y).
			own(X,Y,W), company(Y) -> stake(X,Y).
		`, []ast.Fact{own("a", "b", 0.6), company("b")}, "stake", map[string]int{"held": 1, "stake": 1}},
		// One contributor per group: an existential aggregate head keeps
		// every intermediate, and their values depend on the match order.
		{"existential aggregate head", `
			own(X,Y,W), V = msum(W, <Y>) -> total(X,V,Z).
			total(X,V,Z), company(X) -> big(X,V).
		`, []ast.Fact{own("a", "b", 0.6), own("c", "d", 0.3), company("a"), company("c")}, "big", map[string]int{"big": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParse(tc.src)
			c, err := Compile(prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := c.NewSession()
			if err := s.Run(context.Background(), tc.facts); err != nil {
				t.Fatal(err)
			}
			ch, err := chase.Run(context.Background(), prog, tc.facts, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for pred, n := range tc.answers {
				got, want := s.Output(pred), ch.Output(pred)
				if len(got) != n || !slices.EqualFunc(got, want, func(a, b ast.Fact) bool { return a.Key() == b.Key() }) {
					t.Errorf("%s: pipeline %v, chase %v; want %d facts on both", pred, got, want, n)
				}
			}
			// Every rule fired, so each binding is the one its firings used.
			for i, cr := range c.Rules {
				want := cr.Rule.Heads[0].Pred == tc.bounded
				if b := s.Binding(i); c.bounded[i] != want || (b.RowBound != nil) != want {
					t.Errorf("rule %s: bounded %v, row bound %v; want %v", cr.Rule, c.bounded[i], b.RowBound, want)
				}
			}
		})
	}
}
