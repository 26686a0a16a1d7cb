package vadalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const pathSrc = `
	edge(X,Y) -> path(X,Y).
	path(X,Y), edge(Y,Z) -> path(X,Z).
	@output("path").
`

// chainFacts builds a labelled chain n0 -> n1 -> ... -> nk so distinct
// callers get distinct inputs and distinct expected outputs.
func chainFacts(label string, k int) []Fact {
	out := make([]Fact, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, MakeFact("edge",
			Str(fmt.Sprintf("%s%d", label, i)), Str(fmt.Sprintf("%s%d", label, i+1))))
	}
	return out
}

func TestCompileOnceQueryMany(t *testing.T) {
	r, err := Compile(MustParse(pathSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The same Reasoner serves several queries over different databases;
	// results must be independent (fresh per-query state).
	for k := 1; k <= 4; k++ {
		res, err := r.Query(context.Background(), chainFacts("n", k))
		if err != nil {
			t.Fatal(err)
		}
		want := k * (k + 1) / 2
		if got := len(res.Output("path")); got != want {
			t.Errorf("chain of %d: %d paths, want %d", k, got, want)
		}
	}
}

// TestReasonerConcurrentQueries is the serving scenario: one shared
// compiled Reasoner, many goroutines with distinct fact sets and distinct
// expected outputs. Run under -race this also proves the compiled
// artifact is not mutated at query time.
func TestReasonerConcurrentQueries(t *testing.T) {
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		r, err := Compile(MustParse(pathSrc), &Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				k := 2 + g // distinct chain length per goroutine
				for it := 0; it < 4; it++ {
					facts := chainFacts(fmt.Sprintf("g%d_%d_", g, it), k)
					res, err := r.Query(context.Background(), facts)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %v", g, err)
						return
					}
					want := k * (k + 1) / 2
					if got := len(res.Output("path")); got != want {
						errs <- fmt.Errorf("goroutine %d: %d paths, want %d", g, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("engine %v: %v", engine, err)
		}
	}
}

// crossSrc times out without cancellation: a cubic blowup far beyond what
// the cancel deadline lets it derive.
const crossSrc = `
	a(X), a(Y) -> pair(X,Y).
	pair(X,Y), a(Z) -> triple(X,Y,Z).
	@output("triple").
`

func bigEDB(n int) []Fact {
	out := make([]Fact, n)
	for i := range out {
		out[i] = MakeFact("a", Int(int64(i)))
	}
	return out
}

// TestQueryCancellation: cancelling the context mid-fixpoint must abort
// the run promptly with context.Canceled on both engines.
func TestQueryCancellation(t *testing.T) {
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		r, err := Compile(MustParse(crossSrc), &Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err = r.Query(ctx, bigEDB(400)) // ~64M triples: unreachable before the budget
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v: want context.Canceled, got %v", engine, err)
		}
		if elapsed > 5*time.Second {
			t.Errorf("engine %v: cancellation not prompt: took %v", engine, elapsed)
		}
	}
}

// TestStreamCancellation: a cancelled context surfaces as the final error
// of the iterator sequence.
func TestStreamCancellation(t *testing.T) {
	r, err := Compile(MustParse(crossSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the very first pull must fail
	var last error
	n := 0
	for _, err := range r.Stream(ctx, bigEDB(50), "triple") {
		last = err
		n++
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("want context.Canceled from stream, got %v after %d facts", last, n)
	}
}

func TestReasonerStreamIterator(t *testing.T) {
	r, err := Compile(MustParse(pathSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for f, err := range r.Stream(context.Background(), chainFacts("n", 3), "path") {
		if err != nil {
			t.Fatal(err)
		}
		if f.Pred != "path" {
			t.Fatalf("streamed %v", f)
		}
		count++
	}
	if count != 6 {
		t.Errorf("streamed %d paths, want 6", count)
	}
	// Early break must not wedge the underlying session (iterator contract).
	for range r.Stream(context.Background(), chainFacts("m", 3), "path") {
		break
	}
}

// TestRunAfterStreamDoesNotReloadBinds is the double-loading regression:
// Run after Stream (or a second Run) must not re-read @bind'ed CSV inputs
// nor re-stage pending facts. Deleting the input file between the two
// calls makes any re-read fail loudly.
func TestRunAfterStreamDoesNotReloadBinds(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "own.csv")
	if err := os.WriteFile(in, []byte("a,b,0.9\nb,c,0.8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`
		own(X,Y,W), W > 0.5 -> control(X,Y).
		@input("own").
		@output("control").
		@bind("own","csv","` + in + `").
	`)
	sess := newSession(t, prog, nil)
	if streamed := len(pull(t, sess, "control")); streamed != 2 {
		t.Fatalf("streamed %d control facts, want 2", streamed)
	}
	if err := os.Remove(in); err != nil {
		t.Fatal(err)
	}
	// A second pass must not touch the (now deleted) CSV.
	if err := sess.Run(); err != nil {
		t.Fatalf("Run after Stream re-loaded bound inputs: %v", err)
	}
	der := sess.Derivations()
	if err := sess.Run(); err != nil {
		t.Fatalf("second Run re-loaded bound inputs: %v", err)
	}
	if sess.Derivations() != der {
		t.Errorf("second Run re-staged facts: derivations %d -> %d", der, sess.Derivations())
	}
}

// TestQueryResultAll: Result.All keys every @output predicate's facts.
func TestQueryResultAll(t *testing.T) {
	r, err := Compile(MustParse(pathSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Query(context.Background(), chainFacts("n", 2))
	if err != nil {
		t.Fatal(err)
	}
	all := res.All()
	if len(all) != 1 || len(all["path"]) != 3 {
		t.Errorf("All(): %v", all)
	}
	if _, ok := res.StrategyStats(); !ok {
		t.Error("full strategy must expose stats on Result")
	}
}

func TestReasonerPlan(t *testing.T) {
	r, err := Compile(MustParse(pathSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := r.Plan()
	if err != nil || plan == "" {
		t.Fatalf("plan: %q, %v", plan, err)
	}
	rc, err := Compile(MustParse(pathSrc), &Options{Engine: EngineChase})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Plan(); err == nil {
		t.Error("chase engine must not pretend to have an access plan")
	}
}

// TestStreamIncludesProgramFacts: fact literals written inside the
// program itself must reach the lazy pull path just like Query's batch
// path (regression: the stream loader skipped prog.Facts).
func TestStreamIncludesProgramFacts(t *testing.T) {
	src := `
		edge(a, b).
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		@output("path").
	`
	r, err := Compile(MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	extra := []Fact{MakeFact("edge", Str("b"), Str("c"))}
	res, err := r.Query(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Output("path"))
	if want != 3 {
		t.Fatalf("query: %d paths, want 3", want)
	}
	streamed := 0
	for _, err := range r.Stream(context.Background(), extra, "path") {
		if err != nil {
			t.Fatal(err)
		}
		streamed++
	}
	if streamed != want {
		t.Errorf("stream yielded %d paths, query materialized %d", streamed, want)
	}
}
