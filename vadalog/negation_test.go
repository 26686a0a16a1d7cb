package vadalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestStratifiedNegation pins the stratified model of programs whose
// negated predicates are derived, on both engines, through Query and
// through Stream of the negating output: a negation is tested only once the
// negated relation is complete, whatever the predicates are called and
// whichever rule fires first.
func TestStratifiedNegation(t *testing.T) {
	probe := `a(1). a(2). a(3).  e(1,2). e(2,3).
		a(X), not zb(X) -> c(X).
		e(X,Y), a(X) -> d(Y).   d(X) -> d2(X).   d2(X) -> d3(X).   d3(X) -> zb(X).
		@output("c"). @output("zb").`
	var nodes []Fact
	for i := int64(1); i <= 5; i++ {
		nodes = append(nodes, MakeFact("node", Int(i)))
	}
	unreachable := append([]Fact{
		MakeFact("start", Int(1)),
		MakeFact("edge", Int(1), Int(2)), MakeFact("edge", Int(2), Int(3)), MakeFact("edge", Int(4), Int(5)),
	}, nodes...)
	// The constraint reads reached negated: it belongs to the stratum above
	// it, with the rule that derives root, though it comes first.
	guard := `node(X), not reached(X), not start(X) -> #fail.
		e(X,Y) -> reached(Y).
		node(X), not reached(X) -> root(X).
		@output("root").`
	cases := []struct {
		name, src string
		facts     []Fact
		negating  string            // the output a negating rule derives
		want      map[string]string // predicate -> its facts, sorted and joined
		err       error             // what Query and the end of Stream report instead
	}{
		{"probe", probe, nil, "c",
			map[string]string{"c": "c(1)", "zb": "zb(2) zb(3)"}, nil},
		// Renamed so that the negated predicate sorts before the negating one.
		{"probe renamed", strings.ReplaceAll(probe, "zb", "b"), nil, "c",
			map[string]string{"c": "c(1)", "b": "b(2) b(3)"}, nil},
		{"unreachable nodes", `start(X) -> reached(X).
			reached(X), edge(X,Y) -> reached(Y).
			node(X), not reached(X) -> isolated(X).
			@output("isolated"). @output("reached").`, unreachable, "isolated",
			map[string]string{"isolated": "isolated(4) isolated(5)", "reached": "reached(1) reached(2) reached(3)"}, nil},
		// j is derived through a harmful join on the null Z, which the
		// rewriting moves onto the tag twins of p and q: only the edges from
		// p and q to their twins put j above the negation that derives p.
		{"negated harmful join", `a(1). a(2). b(1).
			a(X), not b(X) -> p(X,Z).
			p(X,Z) -> q(X,Z).
			p(X,Z), q(Y,Z) -> j(X,Y).
			a(X), not j(X,X) -> r(X).
			@output("r"). @output("j").`, nil, "r",
			map[string]string{"r": "r(1)", "j": "j(2,2)"}, nil},
		// Stratum 1 negates b; stratum 2 negates s1 and, in its second rule,
		// the stratum-0 predicate c, whose rule still waits for stratum 1.
		{"three strata", `a(1). a(2). a(3). a(4).  e(1,2). e(2,3).
			e(X,Y) -> b(Y).
			e(X,Y), e(Y,Z) -> c(Z).
			a(X), not b(X) -> s1(X).
			a(X), not s1(X) -> s2(X).
			e(X,Y), not c(X) -> s2(X).
			@output("s1"). @output("s2").`, nil, "s2",
			map[string]string{"s1": "s1(1) s1(4)", "s2": "s2(1) s2(2) s2(3)"}, nil},
		{"negating constraint holds", guard, []Fact{
			MakeFact("node", Int(1)), MakeFact("node", Int(2)), MakeFact("start", Int(1)), MakeFact("e", Int(1), Int(2)),
		}, "root", map[string]string{"root": "root(1)"}, nil},
		{"negating constraint violated", guard, []Fact{
			MakeFact("node", Int(1)), MakeFact("node", Int(2)), MakeFact("node", Int(3)), MakeFact("start", Int(1)),
			MakeFact("e", Int(1), Int(2)),
		}, "root", nil, ErrInconsistent},
	}
	render := func(facts []string) string {
		slices.Sort(facts)
		return strings.Join(facts, " ")
	}
	for _, tc := range cases {
		for _, engine := range []Engine{EnginePipeline, EngineChase} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, engine), func(t *testing.T) {
				r := MustCompile(MustParse(tc.src), &Options{Engine: engine})
				res, err := r.Query(context.Background(), tc.facts)
				if tc.err != nil {
					if !errors.Is(err, tc.err) {
						t.Errorf("Query: err = %v, want %v", err, tc.err)
					}
					for _, err = range r.Stream(context.Background(), tc.facts, tc.negating) {
					}
					if !errors.Is(err, tc.err) {
						t.Errorf("Stream: ends with %v, want %v", err, tc.err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				for pred, want := range tc.want {
					var got []string
					for _, f := range res.Output(pred) {
						got = append(got, f.String())
					}
					if render(got) != want {
						t.Errorf("Query: %s = %s, want %s", pred, render(got), want)
					}
				}
				var streamed []string
				for f, err := range r.Stream(context.Background(), tc.facts, tc.negating) {
					if err != nil {
						t.Fatal(err)
					}
					streamed = append(streamed, f.String())
				}
				if got, want := render(streamed), tc.want[tc.negating]; got != want {
					t.Errorf("Stream: %s = %s, want %s", tc.negating, got, want)
				}
			})
		}
	}
}

// TestLoadAfterDrive pins what a Load into a session that has already been
// driven means for a program with negation, on both engines and through
// both drives (Run and Facts). A load of a predicate that reaches the
// negated one (edge reaches reached) would falsify a settled negation: it
// is refused whole, the next drive returns ErrUnsoundLoad, and the session
// keeps its answer. A load that reaches no negation (node feeds only the
// negating rule) resumes the session and extends the answer.
func TestLoadAfterDrive(t *testing.T) {
	src, err := os.ReadFile("../examples/programs/negation.vada")
	if err != nil {
		t.Fatal(err)
	}
	render := func(facts []Fact) string {
		var out []string
		for _, f := range facts {
			out = append(out, f.String())
		}
		slices.Sort(out)
		return strings.Join(out, " ")
	}
	drives := map[string]func(*Session) error{
		"Run": (*Session).Run,
		"Facts": func(s *Session) error {
			for _, err := range s.Facts(context.Background(), "isolated") {
				if err != nil {
					return err
				}
			}
			return nil
		},
	}
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		for name, drive := range drives {
			t.Run(fmt.Sprintf("%v/%s", engine, name), func(t *testing.T) {
				s := MustCompile(MustParse(string(src)), &Options{Engine: engine}).NewSession()
				s.Load(MakeFact("node", Int(1)), MakeFact("node", Int(2)), MakeFact("node", Int(3)),
					MakeFact("edge", Int(1), Int(2)), MakeFact("start", Int(1)))
				if err := drive(s); err != nil {
					t.Fatal(err)
				}
				check := func(when, isolated, reached string) {
					t.Helper()
					if got := render(s.Output("isolated")); got != isolated {
						t.Errorf("%s: isolated = %s, want %s", when, got, isolated)
					}
					if got := render(s.Output("reached")); got != reached {
						t.Errorf("%s: reached = %s, want %s", when, got, reached)
					}
				}
				check("first drive", "isolated(3)", "reached(1) reached(2)")

				s.Load(MakeFact("edge", Int(2), Int(3)))
				if err := drive(s); !errors.Is(err, ErrUnsoundLoad) {
					t.Fatalf("load reaching negation: err = %v, want ErrUnsoundLoad", err)
				}
				check("refused load", "isolated(3)", "reached(1) reached(2)")
				if err := drive(s); err != nil {
					t.Fatalf("drive after the refusal: %v", err)
				}

				s.Load(MakeFact("node", Int(4)))
				if err := drive(s); err != nil {
					t.Fatalf("load reaching no negation: %v", err)
				}
				check("accepted load", "isolated(3) isolated(4)", "reached(1) reached(2)")
			})
		}
	}
}
