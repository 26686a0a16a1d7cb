package vadalog

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

const controlSrc = `
	own(X,Y,W), W > 0.5 -> control(X,Y).
	control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
	@output("control").
`

func controlFacts() []Fact {
	// a controls b and d directly; b and d jointly own 0.55 of c, so a
	// controls c through them (Example 2 semantics: msum ranges over the
	// companies a already controls).
	return []Fact{
		MakeFact("own", Str("a"), Str("b"), Flt(0.6)),
		MakeFact("own", Str("a"), Str("d"), Flt(0.7)),
		MakeFact("own", Str("b"), Str("c"), Flt(0.3)),
		MakeFact("own", Str("d"), Str("c"), Flt(0.25)),
	}
}

// newSession compiles prog and opens one session over it.
func newSession(t testing.TB, prog *Program, opts *Options) *Session {
	t.Helper()
	r, err := Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r.NewSession()
}

// pull ranges s.Facts(pred) to exhaustion and renders what it yielded.
func pull(t testing.TB, s *Session, pred string) []string {
	t.Helper()
	var out []string
	for f, err := range s.Facts(context.Background(), pred) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f.String())
	}
	return out
}

func TestQueryOneShot(t *testing.T) {
	res, err := MustCompile(MustParse(controlSrc), nil).Query(context.Background(), controlFacts())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := res.All()["control"]
	found := map[string]bool{}
	for _, f := range ctrl {
		found[f.Args[0].Str()+">"+f.Args[1].Str()] = true
	}
	if !found["a>b"] || !found["a>c"] {
		t.Errorf("control pairs: %v", ctrl)
	}
}

func TestEnginesAgree(t *testing.T) {
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		prog := MustParse(controlSrc)
		sess := newSession(t, prog, &Options{Engine: engine})
		sess.Load(controlFacts()...)
		if err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		if n := len(sess.Output("control")); n == 0 {
			t.Errorf("engine %v: empty output", engine)
		}
		if sess.Derivations() == 0 {
			t.Errorf("engine %v: no derivations", engine)
		}
	}
}

func TestAllPoliciesAgreeOnGroundAnswers(t *testing.T) {
	src := `
		company(X) -> psc(X, P).
		keyPerson(X, P) -> psc(X, P).
		control(Y,X), psc(Y,P) -> psc(X,P).
		psc(X,P), psc(Y,P), X != Y -> strongLink(X,Y).
		@output("strongLink").
	`
	facts := []Fact{
		MakeFact("company", Str("a")),
		MakeFact("company", Str("b")),
		MakeFact("control", Str("a"), Str("b")),
		MakeFact("keyPerson", Str("a"), Str("bob")),
		MakeFact("keyPerson", Str("b"), Str("bob")),
	}
	var want []string
	for _, pol := range []Policy{PolicyFull, PolicyNoSummary, PolicyTrivialIso, PolicyRestricted, PolicySkolem} {
		prog := MustParse(src)
		sess := newSession(t, prog, &Options{Policy: pol, MaxDerivations: 100_000})
		sess.Load(facts...)
		if err := sess.Run(); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		var got []string
		for _, f := range sess.Output("strongLink") {
			if f.IsGround() {
				got = append(got, f.String())
			}
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Errorf("policy %v: %d ground answers, want %d", pol, len(got), len(want))
		}
	}
}

func TestCheckReport(t *testing.T) {
	rep := Check(MustParse(controlSrc))
	if !rep.Warded || !rep.Stratified || !rep.Recursive {
		t.Errorf("report: %+v", rep)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
	// Non-warded program.
	rep = Check(MustParse(`
		a(X) -> p(X, Z).
		a(X) -> w(X, Z, V).
		w(X, Z, V), p(Y, Z) -> r(V, X, Y).
	`))
	if rep.Warded {
		t.Error("non-warded program reported as warded")
	}
}

func TestInconsistencyError(t *testing.T) {
	prog := MustParse(`
		p(X, X) -> #fail.
		p(X, Y) -> q(X, Y).
		@output("q").
	`)
	sess := newSession(t, prog, nil)
	sess.Load(MakeFact("p", Str("a"), Str("a")))
	if err := sess.Run(); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
}

func TestBudgetError(t *testing.T) {
	prog := MustParse(`
		a(X), a(Y) -> pair(X, Y).
		@output("pair").
	`)
	sess := newSession(t, prog, &Options{MaxDerivations: 10})
	for i := 0; i < 30; i++ {
		sess.Load(MakeFact("a", Int(int64(i))))
	}
	if err := sess.Run(); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestCSVEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "own.csv")
	out := filepath.Join(dir, "control.csv")
	if err := os.WriteFile(in, []byte("a,b,0.9\nb,c,0.8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`
		own(X,Y,W), W > 0.5 -> control(X,Y).
		control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
		@input("own").
		@output("control").
		@bind("own","csv","` + in + `").
		@bind("control","csv","` + out + `").
	`)
	sess := newSession(t, prog, nil)
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty control.csv")
	}
	// Round trip through ReadCSV.
	facts, err := ReadCSV("control", out)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 3 { // a>b, b>c, a>c
		t.Errorf("control rows: %v", facts)
	}
}

func TestStrategyStatsExposed(t *testing.T) {
	prog := MustParse(`
		p(X) -> q(Z, X).
		q(Z, X) -> p(Z).
		@output("p").
	`)
	sess := newSession(t, prog, nil)
	sess.Load(MakeFact("p", Str("a")))
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	st, ok := sess.StrategyStats()
	if !ok {
		t.Fatal("full strategy must expose stats")
	}
	if st.Checked == 0 {
		t.Error("no checks recorded")
	}
	// Baseline policies do not expose strategy stats.
	sess2 := newSession(t, MustParse(controlSrc), &Options{Policy: PolicySkolem})
	if _, ok := sess2.StrategyStats(); ok {
		t.Error("skolem policy must not expose strategy stats")
	}
}

// TestNoSummaryPolicyReachesStrategy: PolicyNoSummary turns horizontal
// pruning off inside the strategy, on both engines. The answers agree with
// PolicyFull either way, so only the summary's pattern count tells them
// apart: a null-generating recursion learns stop-provenances under the full
// strategy and none without the summary.
func TestNoSummaryPolicyReachesStrategy(t *testing.T) {
	prog := MustParse(`
		p(X, N) -> p(X, M).
		p(X, N), e(X, Y) -> p(Y, N).
		@output("p").
	`)
	facts := []Fact{
		MakeFact("p", Str("a"), Str("seed")),
		MakeFact("e", Str("a"), Str("b")),
		MakeFact("e", Str("b"), Str("c")),
	}
	for _, eng := range []Engine{EnginePipeline, EngineChase} {
		patterns := map[Policy]int{}
		for _, pol := range []Policy{PolicyFull, PolicyNoSummary} {
			sess := newSession(t, prog, &Options{Engine: eng, Policy: pol, MaxDerivations: 10_000})
			sess.Load(facts...)
			if err := sess.Run(); err != nil {
				t.Fatalf("engine %d policy %d: %v", eng, pol, err)
			}
			st, ok := sess.StrategyStats()
			if !ok {
				t.Fatalf("engine %d policy %d: no strategy stats", eng, pol)
			}
			patterns[pol] = st.Patterns
		}
		if patterns[PolicyFull] == 0 {
			t.Errorf("engine %d: the full strategy learnt no summary pattern", eng)
		}
		if patterns[PolicyNoSummary] != 0 {
			t.Errorf("engine %d: PolicyNoSummary learnt %d summary patterns, want 0", eng, patterns[PolicyNoSummary])
		}
	}
}

// TestConstraintsStoreNoRelation: constraint and EGD rules derive no
// predicate, so after a run the pipeline's database holds exactly the
// relations the chase's does.
func TestConstraintsStoreNoRelation(t *testing.T) {
	prog := MustParse(`
		p(1,"a"). p(2,"b"). q(1).
		p(X,Y), p(X,Z) -> Y = Z.
		q(X), p(X,"b") -> #fail.
		q(X), p(X,Y) -> r(Y).
		@output("r").
	`)
	var preds [2][]string
	for i, engine := range []Engine{EnginePipeline, EngineChase} {
		s := newSession(t, prog, &Options{Engine: engine})
		if err := s.Run(); err != nil {
			t.Fatalf("engine %d: %v", engine, err)
		}
		preds[i] = s.core.DB().Predicates()
	}
	if !slices.Equal(preds[0], preds[1]) {
		t.Errorf("pipeline relations %v, chase relations %v", preds[0], preds[1])
	}
}
