package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/parser"
	"repro/internal/term"
)

func runPipeline(t *testing.T, src string, edb []ast.Fact) *Session {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := New(prog, Options{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := s.Run(context.Background(), edb); err != nil {
		t.Fatalf("run: %v", err)
	}
	return s
}

func TestPipelineTransitiveClosure(t *testing.T) {
	src := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		@output("path").
	`
	edb := []ast.Fact{
		ast.NewFact("edge", term.String("a"), term.String("b")),
		ast.NewFact("edge", term.String("b"), term.String("c")),
		ast.NewFact("edge", term.String("c"), term.String("a")),
	}
	s := runPipeline(t, src, edb)
	if got := len(s.Output("path")); got != 9 {
		t.Fatalf("want 9 paths, got %d", got)
	}
}

func TestPipelineStreaming(t *testing.T) {
	// The pull model must deliver facts one by one without draining first.
	src := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		@output("path").
	`
	prog := parser.MustParse(src)
	s, err := New(prog, Options{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	var edb []ast.Fact
	for i := 0; i < 10; i++ {
		edb = append(edb, ast.NewFact("edge",
			term.String(fmt.Sprintf("n%d", i)), term.String(fmt.Sprintf("n%d", i+1))))
	}
	s.LoadFacts(edb)
	count := 0
	for {
		_, ok, err := s.Next(context.Background(), "path", count)
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 10+9+8+7+6+5+4+3+2+1 {
		t.Fatalf("streamed %d paths, want 55", count)
	}
}

// TestNextPullsInputWhenDry pins the order inside Next — pull, then one more
// chunk of input, then sweep, then quiesce — with a Feeder that loads one
// edge per step and counts its steps.
func TestNextPullsInputWhenDry(t *testing.T) {
	const edges = 50
	newFed := func(src string) (s *Session, steps *int) {
		s, err := New(parser.MustParse(src), Options{})
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		steps = new(int)
		s.SetFeeder(func(ctx context.Context) (bool, error) {
			if *steps == edges {
				return false, nil
			}
			s.LoadRow("edge", []term.Value{term.Int(int64(*steps)), term.Int(int64(*steps + 1))})
			*steps++
			return true, nil
		})
		return s, steps
	}
	ctx := context.Background()
	tc := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
	`
	s, steps := newFed(tc)
	if _, ok, err := s.Next(ctx, "path", 0); err != nil || !ok || *steps != 1 {
		t.Fatalf("first path: ok=%v err=%v after %d input steps, want one", ok, err, *steps)
	}
	n := 1
	for ok := true; ok; n++ {
		var err error
		if _, ok, err = s.Next(ctx, "path", n); err != nil {
			t.Fatal(err)
		}
	}
	if want := edges * (edges + 1) / 2; n-1 != want || *steps != edges || !s.Quiesced() {
		t.Errorf("%d paths after %d steps, quiesced=%v; want %d, %d, true", n-1, *steps, s.Quiesced(), want, edges)
	}
	// A predicate nothing has stored yet is answered only once the input is in.
	s, steps = newFed(tc)
	if _, ok, err := s.Next(ctx, "nosuch", 0); err != nil || ok || *steps != edges {
		t.Errorf("unknown predicate: ok=%v err=%v after %d input steps, want a miss after all %d", ok, err, *steps, edges)
	}
	// A negated atom: all the input before the first pull.
	s, steps = newFed(`edge(X,Y), not edge(Y,X) -> oneway(X,Y).`)
	if _, ok, err := s.Next(ctx, "oneway", 0); err != nil || !ok || *steps != edges {
		t.Errorf("negated program: ok=%v err=%v after %d input steps, want the first answer after all %d", ok, err, *steps, edges)
	}
	// A failing step surfaces as it is, and the next pull carries on.
	s, steps = newFed(tc)
	boom := errors.New("boom")
	feed, failed := s.feed, false
	s.SetFeeder(func(ctx context.Context) (bool, error) {
		if *steps == 3 && !failed {
			failed = true
			return false, boom
		}
		return feed(ctx)
	})
	_, _, err := s.Next(ctx, "path", 20)
	if !errors.Is(err, boom) {
		t.Fatalf("failing feeder: %v, want boom", err)
	}
	if _, ok, err := s.Next(ctx, "path", 20); err != nil || !ok {
		t.Errorf("pull after a failed step: ok=%v err=%v", ok, err)
	}
}

func TestPipelineCycleManagement(t *testing.T) {
	// Mutually recursive predicates: runtime cycles must resolve to real
	// misses, not hangs or premature termination.
	src := `
		a(X,Y) -> b(X,Y).
		b(X,Y), a(Y,Z) -> a(X,Z).
		b(X,Y) -> c(X,Y).
		c(X,Y), b(Y,Z) -> b(X,Z).
		@output("c").
	`
	edb := []ast.Fact{
		ast.NewFact("a", term.String("1"), term.String("2")),
		ast.NewFact("a", term.String("2"), term.String("3")),
		ast.NewFact("a", term.String("3"), term.String("4")),
	}
	s := runPipeline(t, src, edb)
	if got := len(s.Output("c")); got == 0 {
		t.Fatal("cycle starved the pipeline: no c facts")
	}
}

func TestPipelineInconsistency(t *testing.T) {
	src := `
		own(X,X,W) -> #fail.
		own(X,Y,W) -> link(X,Y).
		@output("link").
	`
	prog := parser.MustParse(src)
	s, err := New(prog, Options{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	err = s.Run(context.Background(), []ast.Fact{ast.NewFact("own", term.String("a"), term.String("a"), term.Float(1))})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
}

// crossValidate runs both engines on the same program and EDB and compares
// the ground (certain) answers of the given predicates.
func crossValidate(t *testing.T, src string, edb []ast.Fact, preds ...string) {
	t.Helper()
	prog1 := parser.MustParse(src)
	ch, err := chase.Run(context.Background(), prog1, edb, chase.Options{})
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	prog2 := parser.MustParse(src)
	pl, err := New(prog2, Options{})
	if err != nil {
		t.Fatalf("pipeline new: %v", err)
	}
	if err := pl.Run(context.Background(), edb); err != nil {
		t.Fatalf("pipeline run: %v", err)
	}
	for _, pred := range preds {
		a := groundSet(ch.Output(pred))
		b := groundSet(pl.Output(pred))
		if len(a) != len(b) {
			t.Errorf("%s: chase has %d ground facts, pipeline %d", pred, len(a), len(b))
		}
		for k := range a {
			if !b[k] {
				t.Errorf("%s: pipeline missing %s", pred, k)
			}
		}
		for k := range b {
			if !a[k] {
				t.Errorf("%s: pipeline extra %s", pred, k)
			}
		}
	}
}

func groundSet(fs []ast.Fact) map[string]bool {
	out := make(map[string]bool)
	for _, f := range fs {
		if f.IsGround() {
			out[f.String()] = true
		}
	}
	return out
}

func TestCrossValidationSuite(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		edb   []ast.Fact
		preds []string
	}{
		{
			name: "transitive closure",
			src: `
				edge(X,Y) -> path(X,Y).
				path(X,Y), edge(Y,Z) -> path(X,Z).
			`,
			edb: []ast.Fact{
				ast.NewFact("edge", term.String("a"), term.String("b")),
				ast.NewFact("edge", term.String("b"), term.String("c")),
				ast.NewFact("edge", term.String("c"), term.String("d")),
				ast.NewFact("edge", term.String("d"), term.String("b")),
			},
			preds: []string{"path"},
		},
		{
			name: "running example 7",
			src: `
				company(X) -> owns(P, S, X).
				owns(P,S,X) -> stock(X, S).
				owns(P,S,X) -> psc(X, P).
				psc(X,P), controls(X,Y) -> owns(P, S2, Y).
				psc(X,P), psc(Y,P), X != Y -> strongLink(X,Y).
				strongLink(X,Y) -> owns(P2, S3, X).
				strongLink(X,Y) -> owns(P3, S4, Y).
				stock(X,S) -> company(X).
			`,
			edb: []ast.Fact{
				ast.NewFact("company", term.String("hsbc")),
				ast.NewFact("company", term.String("hsb")),
				ast.NewFact("company", term.String("iba")),
				ast.NewFact("controls", term.String("hsbc"), term.String("hsb")),
				ast.NewFact("controls", term.String("hsb"), term.String("iba")),
			},
			preds: []string{"strongLink", "company"},
		},
		{
			name: "aggregation",
			src: `
				own(X,Y,W), W > 0.5 -> control(X,Y).
				control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
			`,
			edb: []ast.Fact{
				ast.NewFact("own", term.String("a"), term.String("b"), term.Float(0.6)),
				ast.NewFact("own", term.String("b"), term.String("c"), term.Float(0.4)),
				ast.NewFact("own", term.String("a"), term.String("c"), term.Float(0.2)),
				ast.NewFact("own", term.String("c"), term.String("d"), term.Float(0.9)),
			},
			preds: []string{"control"},
		},
		{
			name: "negation",
			src: `
				node(X), not bad(X) -> good(X).
				edge(X,Y) -> node(X).
				edge(X,Y) -> node(Y).
			`,
			edb: []ast.Fact{
				ast.NewFact("edge", term.String("a"), term.String("b")),
				ast.NewFact("edge", term.String("b"), term.String("c")),
				ast.NewFact("bad", term.String("b")),
			},
			preds: []string{"good"},
		},
		{
			name: "harmful join",
			src: `
				keyPerson(X,P) -> psc(X,P).
				company(X) -> psc(X, P).
				control(Y,X), psc(Y,P) -> psc(X,P).
				psc(X,P), psc(Y,P), X != Y -> strongLink(X,Y).
			`,
			edb: []ast.Fact{
				ast.NewFact("company", term.String("a")),
				ast.NewFact("company", term.String("b")),
				ast.NewFact("company", term.String("c")),
				ast.NewFact("control", term.String("a"), term.String("b")),
				ast.NewFact("control", term.String("b"), term.String("c")),
				ast.NewFact("keyPerson", term.String("c"), term.String("bob")),
				ast.NewFact("keyPerson", term.String("a"), term.String("bob")),
			},
			preds: []string{"strongLink"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crossValidate(t, tc.src, tc.edb, tc.preds...)
		})
	}
}

func TestPipelineNullRecursionTerminates(t *testing.T) {
	src := `
		p(X) -> q(Z, X).
		q(Z, X) -> p(Z).
		@output("p").
	`
	s := runPipeline(t, src, []ast.Fact{ast.NewFact("p", term.String("a"))})
	if s.Derivations() > 100 {
		t.Fatalf("expected termination with few facts, got %d", s.Derivations())
	}
}

func TestPipelineDeterminism(t *testing.T) {
	src := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		@output("path").
	`
	var edb []ast.Fact
	for i := 0; i < 15; i++ {
		edb = append(edb, ast.NewFact("edge",
			term.String(fmt.Sprintf("n%d", i)), term.String(fmt.Sprintf("n%d", (i+3)%15))))
	}
	render := func() string {
		s := runPipeline(t, src, edb)
		var sb strings.Builder
		for _, f := range s.Output("path") {
			sb.WriteString(f.String())
			sb.WriteByte(';')
		}
		return sb.String()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if render() != first {
			t.Fatalf("non-deterministic pipeline output")
		}
	}
}

// TestCompiledSharedAcrossSessions: one Compiled artifact, several
// sessions over different databases — per-run state must be fully
// isolated (fresh interner, strategy, cursors).
func TestCompiledSharedAcrossSessions(t *testing.T) {
	src := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		@output("path").
	`
	c, err := Compile(parser.MustParse(src), Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for k := 1; k <= 3; k++ {
		s := c.NewSession()
		var edb []ast.Fact
		for i := 0; i < k; i++ {
			edb = append(edb, ast.NewFact("edge",
				term.String(fmt.Sprintf("s%d_%d", k, i)), term.String(fmt.Sprintf("s%d_%d", k, i+1))))
		}
		if err := s.Run(context.Background(), edb); err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		if got, want := len(s.Output("path")), k*(k+1)/2; got != want {
			t.Errorf("session %d: %d paths, want %d", k, got, want)
		}
	}
}

// TestPipelineCancellation: a cancelled context aborts both the batch
// drain and the streaming pull without corrupting the session.
func TestPipelineCancellation(t *testing.T) {
	src := `
		a(X), a(Y) -> pair(X,Y).
		pair(X,Y), a(Z) -> triple(X,Y,Z).
		@output("triple").
	`
	s, err := New(parser.MustParse(src), Options{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	var edb []ast.Fact
	for i := 0; i < 300; i++ {
		edb = append(edb, ast.NewFact("a", term.Int(int64(i))))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Run(ctx, edb); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The session must remain consistent: a live context finishes the job.
	small, err := New(parser.MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Run(ctx, edb[:5]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context must also stop a small run, got %v", err)
	}
	if err := small.Drain(context.Background()); err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	if got := len(small.Output("triple")); got != 5*5*5 {
		t.Errorf("resumed run: %d triples, want 125", got)
	}
}

// TestPipelineAggregateSupersession: the pipeline counterpart of the chase
// supersession test — the relation's delta log re-delivers replaced rows,
// so downstream filters observe the improved aggregate even though their
// cursors had already consumed the superseded intermediate.
func TestPipelineAggregateSupersession(t *testing.T) {
	src := `
		member(G, X), W = mcount(X) -> size(G, W).
		size(G, W), W >= 3 -> big(G).
		@output("size").
		@output("big").
	`
	edb := []ast.Fact{
		ast.NewFact("member", term.String("g1"), term.String("a")),
		ast.NewFact("member", term.String("g1"), term.String("b")),
		ast.NewFact("member", term.String("g1"), term.String("c")),
		ast.NewFact("member", term.String("g2"), term.String("z")),
	}
	s := runPipeline(t, src, edb)
	size := s.Output("size")
	if len(size) != 2 {
		t.Fatalf("live size facts: %v, want one per group", factList(size))
	}
	var got []string
	for _, f := range size {
		got = append(got, f.String())
	}
	if strings.Join(got, ";") != "size(g1,3);size(g2,1)" {
		t.Errorf("final sizes: %v", got)
	}
	if big := s.Output("big"); len(big) != 1 || big[0].String() != "big(g1)" {
		t.Errorf("downstream rule missed the improved aggregate: %v", factList(big))
	}
	if rel := s.DB().Lookup("size"); rel.Live() != 2 {
		t.Errorf("live rows: %d, want 2", rel.Live())
	}
}

func factList(fs []ast.Fact) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}
