package vadalog

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/term"
)

// boundPathSrc is pathSrc with its edges served by a record manager.
const boundPathSrc = `@bind("edge","chunky","t").` + pathSrc

// chainRows is chainFacts as the rows a driver serves.
func chainRows(label string, k int) [][]term.Value {
	rows := make([][]term.Value, 0, k)
	for _, f := range chainFacts(label, k) {
		rows = append(rows, f.Args)
	}
	return rows
}

// lastErr ranges seq to its end and returns how many facts it yielded and
// the error that ended it, if any.
func lastErr(seq func(func(Fact, error) bool)) (n int, err error) {
	for _, e := range seq {
		if e != nil {
			return n, e
		}
		n++
	}
	return n, nil
}

// TestSessionContract pins what a Session promises whichever engine runs
// behind it: every row drives the public API only and must hold for the
// pipeline and the chase alike.
func TestSessionContract(t *testing.T) {
	bg := context.Background()
	// The lazy-drive rows pull "path" over a k-edge chain served three rows
	// per chunk, so what they test happens while input is still arriving.
	const k = 20
	wantPaths := k * (k + 1) / 2
	// drain ranges Facts to its end, collecting what it yields into seen.
	drain := func(ctx context.Context, s *Session, seen map[string]int) error {
		for f, err := range s.Facts(ctx, "path") {
			if err != nil {
				return err
			}
			seen[f.String()]++
		}
		return nil
	}
	complete := func(t *testing.T, seen map[string]int) {
		t.Helper()
		if len(seen) != wantPaths {
			t.Errorf("%d distinct paths streamed, want %d", len(seen), wantPaths)
		}
	}
	rows := []struct {
		name string
		run  func(t *testing.T, engine Engine)
	}{
		{"result before run is ErrNotRun", func(t *testing.T, engine Engine) {
			s := newSession(t, MustParse(pathSrc), &Options{Engine: engine})
			if _, err := s.Result(); !errors.Is(err, ErrNotRun) {
				t.Fatalf("want ErrNotRun before Run, got %v", err)
			}
			if out := s.Output("path"); len(out) != 0 {
				t.Errorf("Output before Run: %v, want empty", out)
			}
			if d := s.Derivations(); d != 0 {
				t.Errorf("Derivations before Run: %d, want 0", d)
			}
			s.Load(chainFacts("n", 2)...)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			res, err := s.Result()
			if err != nil {
				t.Fatalf("Result after Run: %v", err)
			}
			if got := len(res.Output("path")); got != 3 {
				t.Errorf("%d paths, want 3", got)
			}
			if res.Derivations() == 0 {
				t.Error("zero derivations reported")
			}
		}},
		{"load, run, output, load more, run", func(t *testing.T, engine Engine) {
			s := newSession(t, MustParse(pathSrc), &Options{Engine: engine})
			s.Load(chainFacts("n", 3)...)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got := len(s.Output("path")); got != 6 {
				t.Fatalf("paths after first run: %d, want 6", got)
			}
			// Staged facts reach the engine exactly once.
			der := s.Derivations()
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if s.Derivations() != der {
				t.Errorf("second Run changed derivations: %d -> %d", der, s.Derivations())
			}
			s.Load(MakeFact("edge", Str("n3"), Str("n4")))
			if s.Quiesced() {
				t.Error("session with staged facts claims quiescence")
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got := len(s.Output("path")); got != 10 {
				t.Errorf("paths after incremental run: %d, want 10", got)
			}
			if !s.Quiesced() {
				t.Error("completed session does not report quiescence")
			}
		}},
		{"Facts early break, then resume", func(t *testing.T, engine Engine) {
			s := newSession(t, MustParse(pathSrc), &Options{Engine: engine})
			s.Load(chainFacts("n", 10)...)
			n := 0
			for _, err := range s.Facts(bg, "path") {
				if err != nil {
					t.Fatal(err)
				}
				if n++; n == 3 {
					break
				}
			}
			if err := s.Run(); err != nil {
				t.Fatalf("run after early break: %v", err)
			}
			if got, want := len(s.Output("path")), 10*11/2; got != want {
				t.Fatalf("paths after break+run: %d, want %d", got, want)
			}
			if got, want := len(pull(t, s, "path")), 10*11/2; got != want {
				t.Errorf("Facts after the run yielded %d, want %d", got, want)
			}
		}},
		{"Facts sees facts loaded after an earlier pull", func(t *testing.T, engine Engine) {
			s := newSession(t, MustParse(pathSrc), &Options{Engine: engine})
			s.Load(MakeFact("edge", Str("a"), Str("b")))
			if got := len(pull(t, s, "path")); got != 1 {
				t.Fatalf("first range yielded %d paths, want 1", got)
			}
			s.Load(MakeFact("edge", Str("b"), Str("c")))
			if got := len(pull(t, s, "path")); got != 3 { // a->b, b->c, a->c
				t.Errorf("range after Load yielded %d paths, want 3", got)
			}
			if !s.Quiesced() {
				t.Error("exhausted Facts left the session unquiesced")
			}
		}},
		{"budget PartialResult, SetMaxDerivations, Resume", func(t *testing.T, engine Engine) {
			opts := &Options{Engine: engine, MaxDerivations: 25}
			s := newSession(t, MustParse(pathSrc), opts)
			s.Load(chainFacts("n", 20)...)
			err := s.Run()
			var pr *PartialResult
			if !errors.As(err, &pr) {
				t.Fatalf("budget-bounded run returned %v, want *PartialResult", err)
			}
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("PartialResult does not unwrap to ErrBudget: %v", err)
			}
			if pr.Quiesced() {
				t.Fatal("budget-bounded partial result claims quiescence")
			}
			if pr.Derivations() == 0 || len(pr.Output("path")) == 0 {
				t.Fatalf("partial result is empty: %d derivations, %d paths",
					pr.Derivations(), len(pr.Output("path")))
			}
			pr.Session().SetMaxDerivations(0) // back to the default cap
			for i := 0; err != nil; i++ {
				if i == 5 {
					t.Fatalf("resume did not converge: %v", err)
				}
				err = pr.Resume(bg)
			}
			if got, want := len(s.Output("path")), 20*21/2; got != want {
				t.Fatalf("paths after resume: %d, want %d", got, want)
			}
			if !s.Quiesced() {
				t.Error("completed session does not report quiescence")
			}
			// The pull entry point reports the same bound the same way.
			s = newSession(t, MustParse(pathSrc), opts)
			s.Load(chainFacts("n", 20)...)
			if _, err := lastErr(s.Facts(bg, "path")); !errors.As(err, &pr) || !errors.Is(err, ErrBudget) {
				t.Errorf("budget-bounded Facts ended with %v, want *PartialResult over ErrBudget", err)
			}
		}},
		{"cancelled bound-input load, then Close", func(t *testing.T, engine Engine) {
			ctx, cancel := context.WithCancel(bg)
			drv := &chunkyDriver{rows: chainRows("n", 10), chunk: 3, cancel: cancel}
			opts := (&Options{Engine: engine}).RegisterDriver("chunky", drv)
			s := newSession(t, MustParse(boundPathSrc), opts)
			if err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled load returned %v, want context.Canceled", err)
			}
			if s.Quiesced() {
				t.Error("session with a half-drained input claims quiescence")
			}
			if drv.opens != 1 || drv.closes != 0 {
				t.Fatalf("cancelled load: %d opens, %d closes; want the cursor kept open", drv.opens, drv.closes)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if drv.closes != 1 {
				t.Fatalf("Close released %d cursors, want 1", drv.closes)
			}
			if err := s.Close(); err != nil || drv.closes != 1 { // idempotent
				t.Fatalf("second Close: %v, %d closes", err, drv.closes)
			}
		}},
		{"deadline during a bound-input load is a resumable PartialResult", func(t *testing.T, engine Engine) {
			expired, cancel := context.WithDeadline(bg, time.Now().Add(-time.Second))
			defer cancel()
			drives := map[string]func(*Session) error{
				"RunContext": func(s *Session) error { return s.RunContext(expired) },
				"Facts": func(s *Session) error {
					_, err := lastErr(s.Facts(expired, "path"))
					return err
				},
			}
			for name, drive := range drives {
				drv := &chunkyDriver{rows: chainRows("n", 10), chunk: 3}
				opts := (&Options{Engine: engine}).RegisterDriver("chunky", drv)
				s := newSession(t, MustParse(boundPathSrc), opts)
				err := drive(s)
				var pr *PartialResult
				if !errors.As(err, &pr) || !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s: expired load returned %v, want *PartialResult over DeadlineExceeded", name, err)
				}
				if err := pr.Resume(bg); err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				if got, want := len(s.Output("path")), 10*11/2; got != want {
					t.Errorf("%s: paths after resume: %d, want %d", name, got, want)
				}
			}
		}},
		{"cancel between pulled chunks keeps the cursor", func(t *testing.T, engine Engine) {
			prog, d, opts := bindTables(MustParse(pathSrc), chainFacts("n", k), 3, Options{Engine: engine})
			s := newSession(t, prog, opts)
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			d.before = func(_ string, pos int) error {
				if pos == 9 {
					cancel() // chunk 4 of 7 is served and admitted; the check after it sees this
				}
				return nil
			}
			seen := map[string]int{}
			err := drain(ctx, s, seen)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled stream ended with %v, want context.Canceled", err)
			}
			var pr *PartialResult
			if errors.As(err, &pr) {
				t.Fatalf("cancellation surfaced as a PartialResult: %v", err)
			}
			if d.nexts != 4 || d.closes != 0 || s.Quiesced() {
				t.Fatalf("%d chunks pulled at the cancel, %d closes, quiesced=%v; want 4, the cursor open, input left",
					d.nexts, d.closes, s.Quiesced())
			}
			if engine == EnginePipeline && len(seen) == 0 {
				t.Error("pipeline yielded nothing from the three chunks before the cancel")
			}
			// The resumed range starts over at position 0 of the stored
			// predicate and carries on into what had not been read.
			seen = map[string]int{}
			if err := drain(bg, s, seen); err != nil {
				t.Fatalf("resumed stream: %v", err)
			}
			complete(t, seen)
			if len(d.opened) != 1 || d.closes != 1 || d.nexts != d.pulls(k) {
				t.Errorf("%d opens, %d closes, %d pulls (want 1, 1, %d): rows were lost or re-read",
					len(d.opened), d.closes, d.nexts, d.pulls(k))
			}
			if got, want := s.Derivations(), k+wantPaths; got != want {
				t.Errorf("derivations = %d, want %d", got, want)
			}
		}},
		{"transient fault mid-stream is retried at the row", func(t *testing.T, engine Engine) {
			prog, d, opts := bindTables(MustParse(pathSrc), chainFacts("n", k), 3, Options{Engine: engine})
			var faultsAt []int
			fails := 0
			d.before = func(_ string, pos int) error {
				if pos == 9 && fails < 2 { // chunk 4 of 7 fails twice, then heals
					fails++
					faultsAt = append(faultsAt, pos)
					return &TransientError{Err: errors.New("simulated outage")}
				}
				return nil
			}
			opts.Retry = &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
			s := newSession(t, prog, opts)
			seen := map[string]int{}
			if err := drain(bg, s, seen); err != nil {
				t.Fatalf("stream with a healing fault under retry: %v", err)
			}
			complete(t, seen)
			if !slices.Equal(faultsAt, []int{9, 9}) || len(d.opened) != 1 || d.nexts != d.pulls(k) {
				t.Errorf("faults at %v, %d opens, %d pulls; want two retries at row 9 on one cursor and %d pulls",
					faultsAt, len(d.opened), d.nexts, d.pulls(k))
			}
		}},
		{"retries run out mid-stream: transient and resumable", func(t *testing.T, engine Engine) {
			prog, d, opts := bindTables(MustParse(pathSrc), chainFacts("n", k), 3, Options{Engine: engine})
			failed := map[int]bool{}
			d.before = func(_ string, pos int) error {
				if pos > 0 && !failed[pos] { // every chunk after the first fails once
					failed[pos] = true
					return &TransientError{Err: errors.New("simulated outage")}
				}
				return nil
			}
			opts.Retry = &RetryPolicy{MaxAttempts: 1}
			s := newSession(t, prog, opts)
			seen := map[string]int{}
			surfaced := 0
			for err := drain(bg, s, seen); err != nil; err = drain(bg, s, seen) {
				if !IsTransient(err) {
					t.Fatalf("surfaced error is not transient: %v", err)
				}
				if s.Quiesced() {
					t.Fatal("session with unread input claims quiescence")
				}
				if surfaced++; surfaced > d.pulls(k) {
					t.Fatalf("stream did not converge after %d resumes: %v", surfaced, err)
				}
			}
			if surfaced != d.pulls(k)-1 {
				t.Errorf("%d transient errors surfaced, want one per chunk pull after the first (%d)", surfaced, d.pulls(k)-1)
			}
			complete(t, seen)
			if len(d.opened) != 1 || d.closes != 1 || d.nexts != d.pulls(k) {
				t.Errorf("%d opens, %d closes, %d pulls (want 1, 1, %d): resumption must continue the kept cursor",
					len(d.opened), d.closes, d.nexts, d.pulls(k))
			}
		}},
		{"budget cut while input is arriving is one PartialResult", func(t *testing.T, engine Engine) {
			prog, d, opts := bindTables(MustParse(pathSrc), chainFacts("n", k), 3, Options{Engine: engine, MaxDerivations: 30})
			s := newSession(t, prog, opts)
			err := drain(bg, s, map[string]int{})
			var pr, inner *PartialResult
			if !errors.As(err, &pr) || !errors.Is(err, ErrBudget) {
				t.Fatalf("budget-bounded stream ended with %v, want *PartialResult over ErrBudget", err)
			}
			if errors.As(pr.Reason, &inner) {
				t.Fatalf("PartialResult wrapped twice: %v", err)
			}
			if pr.Quiesced() {
				t.Fatal("budget-bounded partial result claims quiescence")
			}
			if engine == EnginePipeline && d.nexts >= d.pulls(k) {
				t.Fatalf("pipeline had read all %d chunks when the budget struck; the cut was meant to land mid-input", d.nexts)
			}
			s.SetMaxDerivations(0)
			for i := 0; err != nil; i++ {
				if i == 5 {
					t.Fatalf("resume did not converge: %v", err)
				}
				err = pr.Resume(bg)
			}
			if got := len(s.Output("path")); got != wantPaths {
				t.Errorf("paths after resume: %d, want %d", got, wantPaths)
			}
			if !s.Quiesced() || len(d.opened) != 1 || d.nexts != d.pulls(k) {
				t.Errorf("quiesced=%v, %d opens, %d pulls (want %d)", s.Quiesced(), len(d.opened), d.nexts, d.pulls(k))
			}
		}},
		{"isomorphism keeps constants of different kinds apart", func(t *testing.T, engine Engine) {
			// r(1,ν) and r(1.0,ν) render alike but are two values, so two
			// facts: neither is isomorphic to the other, and no
			// stop-provenance is learnt from a false isomorphism.
			const src = `a(1).
				a(X) -> p(X,N).
				p(X,N), Y = X + 0.5 - 0.5 -> r(Y,N).
				p(X,N) -> r(X,N).
				@output("r").`
			for _, pol := range []Policy{PolicyFull, PolicyTrivialIso} {
				s := newSession(t, MustParse(src), &Options{Engine: engine, Policy: pol})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				var kinds []term.Kind
				for _, f := range s.Output("r") {
					kinds = append(kinds, f.Args[0].Kind())
				}
				slices.Sort(kinds)
				if !slices.Equal(kinds, []term.Kind{term.KindInt, term.KindFloat}) {
					t.Errorf("policy %v: r holds constants of kinds %v, want one int and one float", pol, kinds)
				}
				if st, ok := s.StrategyStats(); ok && (st.Patterns != 0 || st.IsoHits != 0) {
					t.Errorf("policy %v: %d iso hits, %d patterns learnt, want none", pol, st.IsoHits, st.Patterns)
				}
			}
		}},
		{"Skolem identity is the store's identity", func(t *testing.T, engine Engine) {
			// -0.0 and 0.0 are one stored value, so #f(-0.0) and #f(0.0)
			// are one null; #f of one and of two arguments are two
			// functions, and Int(1) and Float(1.0) are two arguments.
			const src = `p(0.0).
				p(X), Y = X * -1.0, Z = #f(Y) -> a(Z,Y).
				p(X), Z = #f(X) -> b(Z,X).
				a(Z,Y), b(Z,X) -> same(Y,X).
				p(X), Z = #f(X,X) -> c(Z).
				q(1). q(1.0).
				q(X), Z = #g(X) -> d(Z,X).
				@output("a"). @output("b"). @output("c"). @output("d"). @output("same").`
			s := newSession(t, MustParse(src), &Options{Engine: engine})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			a, b, c, d, same := s.Output("a"), s.Output("b"), s.Output("c"), s.Output("d"), s.Output("same")
			if len(a) != 1 || len(b) != 1 || len(c) != 1 || len(same) != 1 {
				t.Fatalf("a %v, b %v, c %v, same %v: want one fact each", a, b, c, same)
			}
			if a[0].Args[0] != b[0].Args[0] {
				t.Errorf("#f(-0.0) = %v and #f(0.0) = %v, want one null", a[0].Args[0], b[0].Args[0])
			}
			if got := same[0].String(); got != "same(0,0)" {
				t.Errorf("same: %s, want same(0,0)", got)
			}
			if c[0].Args[0] == b[0].Args[0] {
				t.Errorf("#f(X,X) and #f(X) both gave %v, want two functions", c[0].Args[0])
			}
			if len(d) != 2 || d[0].Args[0] == d[1].Args[0] || d[0].Args[1].Kind() == d[1].Args[1].Kind() {
				t.Errorf("d: %v, want #g(1) and #g(1.0) to be two nulls", d)
			}
		}},
		{"an anonymous position aliases no named variable", func(t *testing.T, engine Engine) {
			// _anon0_1 is a variable like A; the _ beside it, at body atom 0
			// position 1, is a position of its own that binds nothing.
			const src = `p(2,5). q(2).
				p(_anon0_1, _), q(_anon0_1) -> r(_anon0_1).
				@output("r").`
			s := newSession(t, MustParse(src), &Options{Engine: engine})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if out := s.Output("r"); len(out) != 1 || out[0].String() != "r(2)" {
				t.Fatalf("r: %v, want [r(2)]", out)
			}
		}},
		{"unstratifiable negation is a compile error", func(t *testing.T, engine Engine) {
			// r(1) holds only if q(1) does not, and q(1) holds if r(1) does:
			// there is no stratified model, so there is no answer to print.
			const src = `p(1).
				p(X), not q(X) -> r(X).
				r(X) -> q(X).
				@output("r").`
			_, err := Compile(MustParse(src), &Options{Engine: engine})
			if want := "negation through recursive predicate q is not stratified"; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("compile: %v, want an error containing %q", err, want)
			}
		}},
	}
	for _, row := range rows {
		for _, engine := range []Engine{EnginePipeline, EngineChase} {
			t.Run(fmt.Sprintf("%s/%v", row.name, engine), func(t *testing.T) { row.run(t, engine) })
		}
	}
}
