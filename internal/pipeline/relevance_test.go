package pipeline

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/admit"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// chain returns the facts pred(n0,n1), ..., pred(n{k-1},nk).
func chain(pred string, k int) []ast.Fact {
	fs := make([]ast.Fact, k)
	for i := range fs {
		fs[i] = ast.NewFact(pred, term.String(fmt.Sprintf("n%d", i)), term.String(fmt.Sprintf("n%d", i+1)))
	}
	return fs
}

// disjoint is a large part no pull of path, s or strongLink needs: the
// transitive closure of a 30-edge chain, 465 facts.
const disjoint = `
	big(X,Y) -> wide(X,Y).
	wide(X,Y), big(Y,Z) -> wide(X,Z).
	@output("wide").
`

// TestPullDrivesOnlyTheCone pins the pull path: Next drives only the
// pulled predicate's relevance cone (Compiled.cone), so what it admits is
// the cone's fixpoint, nothing of the disjoint part; the pulled predicate
// still ends as Drain leaves it, constraints and EGDs still act, and a
// Drain on the same session afterwards gives the full database.
func TestPullDrivesOnlyTheCone(t *testing.T) {
	closure := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		@output("path").
	`
	edb := slices.Concat(chain("edge", 4), chain("big", 30))
	cases := []struct {
		name string
		src  string
		edb  []ast.Fact
		pred string
		// cone is the memo for pred: nil when it is every rule.
		cone []int
		// yields counts the facts the pull yields; derivations is
		// Derivations once it is exhausted; err is what it ends in.
		yields, derivations int
		err                 error
	}{
		{
			// 34 EDB facts and the 10 paths of a 4-edge chain: none of
			// the 465 wide facts.
			name: "small cone beside a disjoint part",
			src:  closure + disjoint, edb: edb, pred: "path",
			cone: []int{0, 1}, yields: 10, derivations: 44,
		},
		{
			// The constraint reads only the disjoint part, which the
			// pull therefore drives: wide(n0,n0) fails the stream.
			name: "constraint outside the cone",
			src:  closure + disjoint + `wide(X,X) -> #fail. other(X) -> more(X).`,
			edb:  slices.Concat(chain("edge", 4), chain("big", 3), []ast.Fact{ast.NewFact("big", term.String("n3"), term.String("n0"))}),
			pred: "path", cone: []int{0, 1, 2, 3, 4}, yields: 10, err: admit.ErrInconsistent,
		},
		{
			// 32 EDB facts, q(1,_:n1) and s(_:n1). s(_:n1) carries a null,
			// so the EGD's cone is swept before it is yielded: the EGD
			// equates _:n1 with "c", and the pull yields s(c).
			name: "EGD",
			src: disjoint + `a(X) -> q(X,Z). q(X,Y), r(X,W) -> Y = W. q(X,Y) -> s(Y).
				a(1). r(1,"c"). @output("s").`,
			edb: chain("big", 30), pred: "s",
			cone: []int{2, 3, 4}, yields: 1, derivations: 34,
		},
		{
			// strongLink reads only psc's tag twin, which leads back to
			// psc's rules. 29 derivations: none of the 10 paths.
			name: "harmful join (tag twin)",
			src: closure + `
				keyPerson(X,P) -> psc(X,P).
				company(X) -> psc(X,P).
				control(Y,X), psc(Y,P) -> psc(X,P).
				psc(X,P), psc(Y,P), X > Y, W = mcount(P), W >= 2 -> strongLink(X,Y,W).
				@output("strongLink").
				company("a"). company("b"). company("c").
				keyPerson("a","p1"). keyPerson("b","p1"). keyPerson("b","p2"). keyPerson("c","p2").
				control("a","b"). control("b","c").`,
			edb: chain("edge", 4), pred: "strongLink",
			cone: []int{2, 3, 4, 5}, yields: 3, derivations: 29,
		},
		{
			// No rule derives edge: its cone is the constraints' and
			// EGDs', none here, so the pull fires no rule at all.
			name: "EDB-only predicate",
			src:  closure + disjoint, edb: edb, pred: "edge",
			cone: []int{}, yields: 4, derivations: 34,
		},
		{
			// An EDB-only predicate still drives the constraint's cone.
			name: "EDB-only predicate beside a constraint",
			src:  closure + disjoint + `wide(X,X) -> #fail. other(X) -> more(X).`,
			edb:  slices.Concat(chain("edge", 4), chain("big", 3), []ast.Fact{ast.NewFact("big", term.String("n3"), term.String("n0"))}),
			pred: "edge", cone: []int{2, 3, 4}, yields: 4, err: admit.ErrInconsistent,
		},
		{
			// Nothing stores nosuch, so the pull sweeps its cone, the
			// constraint's, to its fixpoint: the 465 wide facts, none of
			// which violates it.
			name: "unknown predicate",
			src:  closure + disjoint + `wide(X,X) -> #fail.`, edb: edb, pred: "nosuch",
			cone: []int{2, 3, 4}, derivations: 34 + 465,
		},
		{
			// The same beside a violated constraint: the stream fails.
			name: "unknown predicate beside a violated constraint",
			src:  closure + disjoint + `wide(X,X) -> #fail.`,
			edb:  slices.Concat(chain("edge", 4), chain("big", 3), []ast.Fact{ast.NewFact("big", term.String("n3"), term.String("n0"))}),
			pred: "nosuch", cone: []int{2, 3, 4}, err: admit.ErrInconsistent,
		},
		{
			// The whole program is the cone: the memo is nil and the pull
			// sweeps every filter, as Drain does.
			name: "whole-program cone",
			src:  closure + disjoint + `path(X,Y), wide(Y,Z) -> far(X,Z). @output("far").`,
			edb:  edb, pred: "far",
			cone: nil, yields: 110, derivations: 44 + 465 + 110,
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(parser.MustParse(tc.src), Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref := c.NewSession()
			refErr := ref.Run(ctx, tc.edb)
			if !errors.Is(refErr, tc.err) {
				t.Fatalf("run: %v, want %v", refErr, tc.err)
			}
			s := c.NewSession()
			if err := s.LoadProgramFacts(); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadChunk(ctx, tc.edb); err != nil {
				t.Fatal(err)
			}
			var yielded []ast.Fact
			for n := 0; ; n++ {
				f, ok, err := s.Next(ctx, tc.pred, n)
				if err != nil || !ok {
					if !errors.Is(err, tc.err) {
						t.Fatalf("pull ends in %v, want %v", err, tc.err)
					}
					break
				}
				yielded = append(yielded, f)
			}
			if got := c.cone(tc.pred); !slices.Equal(got, tc.cone) || (got == nil) != (tc.cone == nil) {
				t.Errorf("cone %#v, want %#v", got, tc.cone)
			}
			if len(yielded) != tc.yields {
				t.Errorf("yielded %d facts, want %d", len(yielded), tc.yields)
			}
			if tc.err != nil {
				if err := s.Drain(ctx); !errors.Is(err, tc.err) {
					t.Fatalf("drain after the pull: %v, want %v", err, tc.err)
				}
				return
			}
			if got := s.Derivations(); got != tc.derivations {
				t.Errorf("derivations after the pull %d, want %d", got, tc.derivations)
			}
			if got, want := factList(s.Output(tc.pred)), factList(ref.Output(tc.pred)); !slices.Equal(got, want) {
				t.Errorf("%s after the pull: %v, Drain's answer %v", tc.pred, got, want)
			}
			got, want := factList(yielded), factList(ref.Output(tc.pred))
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("yielded %v, Drain's answer %v", got, want)
			}
			if err := s.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if s.Derivations() != ref.Derivations() {
				t.Errorf("derivations after a later drain %d, want %d", s.Derivations(), ref.Derivations())
			}
			for _, pred := range ref.DB().Predicates() {
				if got, want := factList(s.Output(pred)), factList(ref.Output(pred)); !slices.Equal(got, want) {
					t.Errorf("%s after a later drain: %v, want %v", pred, got, want)
				}
			}
		})
	}
}
