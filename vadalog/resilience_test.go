package vadalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/source"
	"repro/internal/term"
)

// flakyDriver is a Source whose cursor fails transiently a configured
// number of times before each successful pull, recording every open and
// close — the test double behind the retry-policy and cleanup tests.
type flakyDriver struct {
	rows     [][]term.Value
	failures int // transient failures served before each successful Next
	opened   int
	closed   int
}

type flakyCursor struct {
	d      *flakyDriver
	rows   [][]term.Value
	pos    int
	fails  int
	chunk  int
	closed bool
}

func (d *flakyDriver) Open(ctx context.Context, b source.Binding) (source.RecordCursor, error) {
	d.opened++
	return &flakyCursor{d: d, rows: d.rows, chunk: 1}, nil
}

func (c *flakyCursor) Next(ctx context.Context) ([][]term.Value, error) {
	if c.fails < c.d.failures {
		c.fails++
		return nil, &source.Transient{Err: fmt.Errorf("flaky: simulated outage %d", c.fails)}
	}
	c.fails = 0
	if c.pos >= len(c.rows) {
		return nil, nil
	}
	end := min(c.pos+c.chunk, len(c.rows))
	chunk := c.rows[c.pos:end]
	c.pos = end
	return chunk, nil
}

func (c *flakyCursor) Close() error {
	if !c.closed {
		c.closed = true
		c.d.closed++
	}
	return nil
}

func edgeRows(n int) [][]term.Value {
	rows := make([][]term.Value, n)
	for i := range rows {
		rows[i] = []term.Value{Str(fmt.Sprintf("n%d", i)), Str(fmt.Sprintf("n%d", i+1))}
	}
	return rows
}

const flakyTC = `
	@bind("edge","flaky","edges").
	edge(X,Y) -> tc(X,Y).
	edge(X,Y), tc(Y,Z) -> tc(X,Z).
	@output("tc").
`

// TestRetryPolicyAbsorbsTransientFaults: a source that fails twice
// before every pull is healed in place by the default policy (4
// attempts) — the run succeeds, nothing is re-read, and the answer is
// complete.
func TestRetryPolicyAbsorbsTransientFaults(t *testing.T) {
	d := &flakyDriver{rows: edgeRows(10), failures: 2}
	opts := (&Options{Retry: &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}}).
		RegisterDriver("flaky", d)
	s := newSession(t, MustParse(flakyTC), opts)
	if err := s.Run(); err != nil {
		t.Fatalf("run with transient faults under retry: %v", err)
	}
	if got, want := len(s.Output("tc")), 10*11/2; got != want {
		t.Fatalf("tc: %d facts, want %d", got, want)
	}
	if d.opened != 1 {
		t.Errorf("source opened %d times; retries must not reopen", d.opened)
	}
	if d.closed != 1 {
		t.Errorf("cursor closed %d times, want 1", d.closed)
	}
}

// TestRetryExhaustionIsTransientAndResumable: with retrying disabled
// (MaxAttempts 1) the fault surfaces still satisfying IsTransient, the
// cursor is kept at the failed row, and re-running the session drains
// the source without losing or duplicating rows.
func TestRetryExhaustionIsTransientAndResumable(t *testing.T) {
	d := &flakyDriver{rows: edgeRows(10), failures: 1}
	opts := (&Options{Retry: &RetryPolicy{MaxAttempts: 1}}).RegisterDriver("flaky", d)
	s := newSession(t, MustParse(flakyTC), opts)
	runs := 0
	for err := s.Run(); err != nil; err = s.Run() {
		if !IsTransient(err) {
			t.Fatalf("surfaced error is not transient: %v", err)
		}
		if runs++; runs > 2*len(d.rows)+2 {
			t.Fatalf("session did not converge after %d runs: %v", runs, err)
		}
	}
	if runs == 0 {
		t.Fatal("flaky source never surfaced a transient error")
	}
	if got, want := len(s.Output("tc")), 10*11/2; got != want {
		t.Fatalf("tc after resumes: %d facts, want %d", got, want)
	}
	if d.opened != 1 {
		t.Errorf("source opened %d times; resumption must reuse the kept cursor", d.opened)
	}
}

// TestPartialResultOnDeadline: an expired deadline surfaces as a
// *PartialResult (unlike plain cancellation), and a fresh context
// resumes the run to completion.
func TestPartialResultOnDeadline(t *testing.T) {
	prog := MustParse(`
		edge(X,Y) -> tc(X,Y).
		edge(X,Y), tc(Y,Z) -> tc(X,Z).
		@output("tc").
	`)
	s := newSession(t, prog, nil)
	for i := 0; i < 20; i++ {
		s.Load(MakeFact("edge", Str(fmt.Sprintf("n%d", i)), Str(fmt.Sprintf("n%d", i+1))))
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := s.RunContext(ctx)
	var pr *PartialResult
	if !errors.As(err, &pr) {
		t.Fatalf("deadline-bounded run returned %v, want *PartialResult", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PartialResult does not unwrap to DeadlineExceeded: %v", err)
	}
	if pr.Quiesced() {
		t.Fatal("deadline-bounded partial result claims quiescence")
	}
	if err := pr.Resume(context.Background()); err != nil {
		t.Fatalf("resume with a fresh context: %v", err)
	}
	if got, want := len(s.Output("tc")), 20*21/2; got != want {
		t.Fatalf("tc after resume: %d facts, want %d", got, want)
	}
}

// TestCancellationIsNotPartial: context.Canceled is the caller's own
// signal and must surface untouched, never dressed as a PartialResult.
func TestCancellationIsNotPartial(t *testing.T) {
	s := newSession(t, MustParse(`a(1). @output("a").`), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	var pr *PartialResult
	if errors.As(err, &pr) {
		t.Fatalf("cancellation surfaced as a PartialResult: %v", err)
	}
}

// TestWorkerPanicIsolation: a panic in the chase's match phase is
// recovered into a positioned *PanicError — the process survives, the
// error names the crashed rule, and the session resumes to the complete
// answer.
func TestWorkerPanicIsolation(t *testing.T) {
	prog := MustParse(`
		edge(X,Y) -> tc(X,Y).
		edge(X,Y), tc(Y,Z) -> tc(X,Z).
		@output("tc").
	`)
	s := newSession(t, prog, &Options{Engine: EngineChase})
	for i := 0; i < 200; i++ {
		s.Load(MakeFact("edge", Str(fmt.Sprintf("n%d", i)), Str(fmt.Sprintf("n%d", i+1))))
	}
	if err := fault.Enable("chase.match@100!"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	err := s.Run()
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("match-phase crash surfaced as %v, want *PanicError", err)
	}
	if pe.Engine != "chase" {
		t.Errorf("PanicError.Engine = %q, want \"chase\"", pe.Engine)
	}
	if pe.Rule == nil || pe.Rule.Line <= 0 {
		t.Errorf("PanicError is not positioned at the crashed rule: %+v", pe.Rule)
	}
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Errorf("PanicError does not unwrap to the injected panic value: %v", err)
	}
	fault.Disable()
	if err := s.Run(); err != nil {
		t.Fatalf("resume after match-phase panic: %v", err)
	}
	if got, want := len(s.Output("tc")), 200*201/2; got != want {
		t.Fatalf("tc after resume: %d facts, want %d", got, want)
	}
}

// TestStreamEarlyBreakReleasesCursor: breaking out of Reasoner.Stream —
// here because a cancelled context cut the load short, the case that
// leaves a cursor open for resumption — must still release the cursor:
// the internal session is unreachable afterwards, so Stream closes it.
func TestStreamEarlyBreakReleasesCursor(t *testing.T) {
	d := &flakyDriver{rows: edgeRows(10)}
	opts := (&Options{Engine: EngineChase}).RegisterDriver("flaky", d)
	r, err := Compile(MustParse(flakyTC), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var streamErr error
	for _, e := range r.Stream(ctx, nil, "tc") {
		streamErr = e
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("cancelled stream yielded %v, want context.Canceled", streamErr)
	}
	if d.opened != d.closed {
		t.Fatalf("stream leaked cursors: %d opened, %d closed", d.opened, d.closed)
	}
}

// TestStreamCompletedRunLeavesNoCursor: the plain early-break case — a
// consumer stops after the first fact of a completed load — also ends
// with every cursor released.
func TestStreamCompletedRunLeavesNoCursor(t *testing.T) {
	d := &flakyDriver{rows: edgeRows(10)}
	opts := (&Options{}).RegisterDriver("flaky", d)
	r, err := Compile(MustParse(flakyTC), opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range r.Stream(context.Background(), nil, "tc") {
		if e != nil {
			t.Fatal(e)
		}
		if n++; n == 1 {
			break
		}
	}
	if n != 1 {
		t.Fatalf("yielded %d facts before break, want 1", n)
	}
	if d.opened == 0 || d.opened != d.closed {
		t.Fatalf("stream leaked cursors: %d opened, %d closed", d.opened, d.closed)
	}
}

// budgetSweepOutputs renders every @output predicate of s, sorted — the
// admission-order-insensitive form the sweep compares.
func budgetSweepOutputs(s *Session, prog *Program) string {
	var preds []string
	for pred := range prog.Outputs {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	var sb strings.Builder
	for _, pred := range preds {
		sb.WriteString(chaosDigest(s.Output(pred)))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBudgetSweepResumeEquivalence cuts a run at every possible budget,
// raises the budget and resumes to convergence, on both engines, and
// requires the answer of an unbudgeted run: wherever ErrBudget lands — a
// plain admission, an aggregate's first emission, a supersession step, a
// tag-twin mirror — the refused step must leave nothing half-applied that
// the re-fired delta cannot redo.
func TestBudgetSweepResumeEquivalence(t *testing.T) {
	// A chain feeds one msum group a contribution per delta batch, and big
	// depends on the group's final value: the last supersession step is the
	// only one that crosses the threshold.
	chain := `
		at(N), succ(N,M) -> mid(M).
		mid(M) -> at(M).
		at(N), w(N,W), V = msum(W,<N>) -> total("g",V).
		total(G,V), V > 0.95 -> big(G).
		@output("total"). @output("big").
	`
	chainFacts := []Fact{MakeFact("at", Int(0))}
	for i := 0; i < 10; i++ {
		chainFacts = append(chainFacts,
			MakeFact("succ", Int(int64(i)), Int(int64(i+1))),
			MakeFact("w", Int(int64(i)), Flt(0.1)))
	}
	readProgram := func(name string) string {
		src, err := os.ReadFile(filepath.Join("..", "examples", "programs", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	// stronglinks: the harmful join on P is rewritten dynamically, so psc
	// carries a live tag twin fed by both ground and null-valued facts.
	linkFacts := []Fact{
		MakeFact("company", Str("a")), MakeFact("company", Str("b")), MakeFact("company", Str("c")),
		MakeFact("keyPerson", Str("a"), Str("p1")), MakeFact("keyPerson", Str("b"), Str("p1")),
		MakeFact("keyPerson", Str("b"), Str("p2")), MakeFact("keyPerson", Str("c"), Str("p2")),
		MakeFact("control", Str("a"), Str("b")), MakeFact("control", Str("b"), Str("c")),
	}
	controlFacts := []Fact{
		MakeFact("own", Str("a"), Str("b"), Flt(0.6)), MakeFact("own", Str("a"), Str("c"), Flt(0.3)),
		MakeFact("own", Str("b"), Str("c"), Flt(0.3)), MakeFact("own", Str("b"), Str("d"), Flt(0.4)),
		MakeFact("own", Str("c"), Str("d"), Flt(0.2)), MakeFact("own", Str("d"), Str("e"), Flt(0.7)),
		MakeFact("own", Str("a"), Str("f"), Flt(0.2)), MakeFact("own", Str("e"), Str("f"), Flt(0.4)),
	}
	scenarios := []struct {
		name  string
		src   string
		facts []Fact
	}{
		{"chain-msum", chain, chainFacts},
		{"stronglinks", readProgram("stronglinks.vada"), linkFacts},
		{"companycontrol", readProgram("companycontrol.vada"), controlFacts},
	}
	sweep := func(t *testing.T, src string, facts []Fact, engine Engine, lazy bool) {
		prog, opts := MustParse(src), &Options{Engine: engine}
		open := func(r *Reasoner) *Session {
			s := r.NewSession()
			s.Load(facts...)
			return s
		}
		drive := func(s *Session) error { return s.Run() }
		if lazy {
			prog, _, opts = bindTables(prog, facts, 1, *opts)
			var pulled string // the one output predicate the drive pulls
			for pred := range prog.Outputs {
				pulled = max(pulled, pred)
			}
			open = (*Reasoner).NewSession
			drive = func(s *Session) error {
				_, err := lastErr(s.Facts(context.Background(), pulled))
				return err
			}
		}
		r, err := Compile(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := open(r)
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		want, total := budgetSweepOutputs(ref, prog), ref.Derivations()
		if strings.TrimSpace(want) == "" {
			t.Fatal("scenario produced no output (vacuous comparison)")
		}
		for budget := 1; budget <= total+1; budget++ {
			s := open(r)
			s.SetMaxDerivations(budget)
			err := drive(s)
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatalf("budget %d: %v", budget, err)
			}
			// (A lazy pull interleaves loading with firing, so an aggregate
			// can reach its limit in fewer supersession steps than the batch
			// run: only the batch drive has a known total.)
			if err == nil && budget < total && !lazy {
				t.Fatalf("budget %d < %d derivations did not cut the run", budget, total)
			}
			s.SetMaxDerivations(0)
			for i := 0; err != nil; i++ {
				if i == 5 {
					t.Fatalf("budget %d: resume did not converge: %v", budget, err)
				}
				err = s.Run()
			}
			if got := budgetSweepOutputs(s, prog); got != want {
				t.Errorf("budget %d: resumed answer differs from the unbudgeted run\n got: %q\nwant: %q", budget, got, want)
			}
		}
	}
	for _, sc := range scenarios {
		for _, engine := range []Engine{EnginePipeline, EngineChase} {
			t.Run(fmt.Sprintf("%s/%v", sc.name, engine), func(t *testing.T) {
				// Staged facts, Run cut by the budget.
				sweep(t, sc.src, sc.facts, engine, false)
				// The same facts served by a record manager one row per
				// chunk and a lazy Facts pull cut by the budget: on the
				// pipeline every cut lands with input still arriving.
				t.Run("lazy", func(t *testing.T) { sweep(t, sc.src, sc.facts, engine, true) })
			})
		}
	}
}
