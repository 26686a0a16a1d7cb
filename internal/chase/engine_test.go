package chase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen/dbpedia"
	"repro/internal/gen/graphs"
	"repro/internal/gen/iwarded"
	"repro/internal/parser"
	"repro/internal/term"
)

func run(t *testing.T, src string, edb []ast.Fact) *Result {
	t.Helper()
	return runWithOpts(t, src, edb, Options{})
}

func runWithOpts(t *testing.T, src string, facts []ast.Fact, opts Options) *Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(context.Background(), prog, facts, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// dbBytes renders the full final database byte-exactly: every predicate in
// sorted order, every stored row in insertion order (retracted rows
// included, marked), nulls with their identities. Two runs agree on this
// string iff they admitted the same facts in the same order.
func dbBytes(res *Result) string {
	var sb strings.Builder
	for _, pred := range res.DB.Predicates() {
		rel := res.DB.Lookup(pred)
		fmt.Fprintf(&sb, "%s[%d]\n", pred, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			m := rel.At(i)
			if m.Retracted {
				sb.WriteString("  x ")
			} else {
				sb.WriteString("    ")
			}
			sb.WriteString(m.Fact.String())
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintf(&sb, "derivations=%d nulls=%d\n", res.Derivations, res.DB.Nulls.Count())
	return sb.String()
}

// scenarios mirrors the examples/ scenarios (plus a rule-heavy iWarded
// instance): every workload class the repository ships — plain recursion,
// existentials, harmful joins, monotonic aggregation over floats and sets,
// EGD-free ontologies.
func scenarios(t *testing.T) []struct {
	name  string
	src   string
	facts []ast.Fact
} {
	t.Helper()
	ownership := graphs.ScaleFree(120, graphs.PaperParams(), 1)
	persons := dbpedia.Generate(dbpedia.Config{Companies: 60, Persons: 180,
		KeyPersonRate: 1.2, ControlRate: 0.35, Seed: 7})
	quickstart := `
		company(X) -> keyPerson(P, X).
		control(X,Y), keyPerson(P,X) -> keyPerson(P,Y).
		@output("keyPerson").
	`
	quickFacts := []ast.Fact{
		ast.NewFact("company", term.String("acme")),
		ast.NewFact("company", term.String("subco")),
		ast.NewFact("control", term.String("acme"), term.String("subco")),
		ast.NewFact("keyPerson", term.String("ada"), term.String("acme")),
	}
	cfg, ok := iwarded.Scenario("synthA")
	if !ok {
		t.Fatal("synthA scenario missing")
	}
	cfg.FactsPerRel = 30
	g, err := iwarded.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		src   string
		facts []ast.Fact
	}{
		{"quickstart", quickstart, quickFacts},
		{"companycontrol", graphs.ControlProgram, ownership.OwnFacts()},
		{"psc", dbpedia.PSCProgram, persons.All()},
		{"allpsc", dbpedia.AllPSCProgram, persons.All()},
		{"stronglinks", dbpedia.StrongLinksProgram(3), persons.All()},
		{"iwarded-synthA", g.Source, g.Facts},
	}
}

// sortedGround renders the ground facts of pred's output, sorted.
func sortedGround(res *Result, pred string) string {
	var lines []string
	for _, f := range res.Output(pred) {
		if f.IsGround() {
			lines = append(lines, f.String())
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

func factStrings(fs []ast.Fact) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

func wantFacts(t *testing.T, got []ast.Fact, want ...string) {
	t.Helper()
	gotSet := make(map[string]bool)
	for _, f := range got {
		gotSet[f.String()] = true
	}
	for _, w := range want {
		if !gotSet[w] {
			t.Errorf("missing fact %s; got %v", w, factStrings(got))
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d facts, want %d: %v", len(got), len(want), factStrings(got))
	}
}

func TestTransitiveClosure(t *testing.T) {
	src := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
	`
	edb := []ast.Fact{
		ast.NewFact("edge", term.String("a"), term.String("b")),
		ast.NewFact("edge", term.String("b"), term.String("c")),
		ast.NewFact("edge", term.String("c"), term.String("a")), // cycle
	}
	res := run(t, src, edb)
	got := res.Output("path")
	if len(got) != 9 {
		t.Fatalf("want 9 paths over the 3-cycle, got %d: %v", len(got), factStrings(got))
	}
}

// TestPaperExample3 checks the KeyPerson scenario of paper Example 3: the
// chase must propagate Bob along Control and invent a key person only
// where needed.
func TestPaperExample3(t *testing.T) {
	src := `
		company(X) -> keyPerson(P, X).
		control(X,Y), keyPerson(P,X) -> keyPerson(P,Y).
	`
	edb := []ast.Fact{
		ast.NewFact("company", term.String("a")),
		ast.NewFact("company", term.String("b")),
		ast.NewFact("company", term.String("c")),
		ast.NewFact("control", term.String("a"), term.String("b")),
		ast.NewFact("control", term.String("a"), term.String("c")),
		ast.NewFact("keyPerson", term.String("bob"), term.String("a")),
	}
	res := run(t, src, edb)
	got := res.Output("keyPerson")
	// Bob must be a key person of a, b and c.
	want := map[string]bool{"a": false, "b": false, "c": false}
	for _, f := range got {
		if f.Args[0] == term.String("bob") {
			want[f.Args[1].Str()] = true
		}
	}
	for c, ok := range want {
		if !ok {
			t.Errorf("bob should be key person of %s; got %v", c, factStrings(got))
		}
	}
	// And the invented key persons must also propagate (nulls allowed).
	for _, c := range []string{"a", "b", "c"} {
		found := false
		for _, f := range got {
			if f.Args[1].Str() == c {
				found = true
			}
		}
		if !found {
			t.Errorf("no key person at all for company %s", c)
		}
	}
}

// TestPaperExample7 runs the full running example (Sec. 3) and checks that
// the chase terminates and produces the expected strong links.
func TestPaperExample7(t *testing.T) {
	src := `
		company(X) -> owns(P, S, X).
		owns(P,S,X) -> stock(X, S).
		owns(P,S,X) -> psc(X, P).
		psc(X,P), controls(X,Y) -> owns(P, S2, Y).
		psc(X,P), psc(Y,P) -> strongLink(X,Y).
		strongLink(X,Y) -> owns(P2, S3, X).
		strongLink(X,Y) -> owns(P3, S4, Y).
		stock(X,S) -> company(X).
	`
	edb := []ast.Fact{
		ast.NewFact("company", term.String("hsbc")),
		ast.NewFact("company", term.String("hsb")),
		ast.NewFact("company", term.String("iba")),
		ast.NewFact("controls", term.String("hsbc"), term.String("hsb")),
		ast.NewFact("controls", term.String("hsb"), term.String("iba")),
	}
	res := run(t, src, edb)
	got := res.Output("strongLink")
	set := make(map[string]bool)
	for _, f := range got {
		set[f.Args[0].Str()+"|"+f.Args[1].Str()] = true
	}
	// The person invented for hsbc propagates along controls to hsb and
	// iba, so all pairs among {hsbc,hsb,iba} must be strongly linked.
	for _, pair := range []string{"hsbc|hsb", "hsb|iba", "hsbc|iba", "hsb|hsbc", "iba|hsb", "iba|hsbc"} {
		if !set[pair] {
			t.Errorf("missing strong link %s; got %v", pair, factStrings(got))
		}
	}
	if res.Derivations > 10000 {
		t.Errorf("chase did not stay small: %d derivations", res.Derivations)
	}
}

// TestPaperExample10 reproduces the monotonic aggregation example verbatim.
func TestPaperExample10(t *testing.T) {
	src := `
		p(X,Y,W), J = msum(W, <Y>) -> q(X, J).
	`
	edb := []ast.Fact{
		ast.NewFact("p", term.Int(1), term.Int(2), term.Int(5)),
		ast.NewFact("p", term.Int(1), term.Int(2), term.Int(3)),
		ast.NewFact("p", term.Int(1), term.Int(3), term.Int(7)),
		ast.NewFact("p", term.Int(2), term.Int(4), term.Int(2)),
		ast.NewFact("p", term.Int(2), term.Int(4), term.Int(3)),
		ast.NewFact("p", term.Int(2), term.Int(5), term.Int(1)),
	}
	res := run(t, src, edb)
	got := res.Output("q")
	// The final aggregates must be q(1,12) and q(2,4); intermediate values
	// are allowed (monotonic aggregation emits increasing prefixes).
	max := map[int64]int64{}
	for _, f := range got {
		x, j := f.Args[0].IntVal(), f.Args[1].IntVal()
		if j > max[x] {
			max[x] = j
		}
	}
	if max[1] != 12 || max[2] != 4 {
		t.Errorf("final aggregates: got q(1,%d) q(2,%d), want q(1,12) q(2,4); facts %v",
			max[1], max[2], factStrings(got))
	}
}

// TestPaperExample2 is the company-control scenario with recursive msum.
func TestPaperExample2(t *testing.T) {
	src := `
		own(X,Y,W), W > 0.5 -> control(X,Y).
		control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
	`
	edb := []ast.Fact{
		// a controls b directly (0.6); a controls c via b (0.3) + directly (0.25).
		ast.NewFact("own", term.String("a"), term.String("b"), term.Float(0.6)),
		ast.NewFact("own", term.String("b"), term.String("c"), term.Float(0.3)),
		ast.NewFact("own", term.String("a"), term.String("c"), term.Float(0.25)),
		// d owns 40% of b: no control.
		ast.NewFact("own", term.String("d"), term.String("b"), term.Float(0.4)),
	}
	res := run(t, src, edb)
	got := res.Output("control")
	set := make(map[string]bool)
	for _, f := range got {
		set[f.Args[0].Str()+">"+f.Args[1].Str()] = true
	}
	if !set["a>b"] {
		t.Errorf("a should control b directly")
	}
	// a controls c: jointly via b (0.3, a controls b) + a's own 0.25 = 0.55.
	// Note the paper's msum sums over controlled companies y; here the
	// contributors are y ∈ {b} plus... a's direct ownership only counts via
	// rule 2 when a controls a — it does not. So expected: 0.3 < 0.5: no
	// control of c unless a controls itself. Verify NO a>c.
	if set["a>c"] {
		t.Errorf("a must not control c (0.3 via b only)")
	}
	if set["d>b"] {
		t.Errorf("d must not control b (0.4)")
	}
}

func TestConstraintViolation(t *testing.T) {
	src := `
		own(X,X,W) -> #fail.
		own(X,Y,W) -> softLink(X,Y).
	`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	edb := []ast.Fact{ast.NewFact("own", term.String("a"), term.String("a"), term.Float(0.1))}
	_, err = Run(context.Background(), prog, edb, Options{})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
}

func TestEGDUnifiesNulls(t *testing.T) {
	// Incorporation: a single (unknown) owner must own both companies
	// (paper Example 6, simplified). The two invented owners get unified.
	src := `
		incorp(X,Y) -> own(Z, X).
		incorp(X,Y) -> own(W, Y).
		incorp(Y,Z), own(X1,Y), own(X2,Z) -> X1 = X2.
		own(P,X) -> owner(P).
	`
	edb := []ast.Fact{ast.NewFact("incorp", term.String("u"), term.String("v"))}
	res := run(t, src, edb)
	owners := res.Output("owner")
	if len(owners) != 1 {
		t.Fatalf("EGD should unify the two invented owners into one, got %v", factStrings(owners))
	}
}

func TestEGDConstantViolation(t *testing.T) {
	src := `
		samekey(X,Y), val(X,V1), val(Y,V2) -> V1 = V2.
	`
	prog := parser.MustParse(src)
	edb := []ast.Fact{
		ast.NewFact("samekey", term.String("a"), term.String("b")),
		ast.NewFact("val", term.String("a"), term.Int(1)),
		ast.NewFact("val", term.String("b"), term.Int(2)),
	}
	_, err := Run(context.Background(), prog, edb, Options{})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
}

func TestStratifiedNegation(t *testing.T) {
	src := `
		node(X), not bad(X) -> good(X).
		edge(X,Y) -> node(X).
		edge(X,Y) -> node(Y).
	`
	edb := []ast.Fact{
		ast.NewFact("edge", term.String("a"), term.String("b")),
		ast.NewFact("bad", term.String("b")),
	}
	res := run(t, src, edb)
	wantFacts(t, res.Output("good"), "good(a)")
}

// TestNullRecursionTerminates checks the core guarantee: a program whose
// Skolem chase is infinite terminates under the strategy.
func TestNullRecursionTerminates(t *testing.T) {
	src := `
		p(X) -> q(Z, X).
		q(Z, X) -> p(Z).
	`
	edb := []ast.Fact{ast.NewFact("p", term.String("a"))}
	res := run(t, src, edb)
	if res.Derivations > 100 {
		t.Fatalf("expected a tiny terminating chase, got %d derivations", res.Derivations)
	}
	if len(res.Output("q")) == 0 || len(res.Output("p")) < 2 {
		t.Fatalf("chase too aggressive: p=%v q=%v",
			factStrings(res.Output("p")), factStrings(res.Output("q")))
	}
}

// TestHarmfulJoinDynamic checks Example 13-style harmful joins: strong
// links via shared invented PSCs must be found (nulls joined via tags).
func TestHarmfulJoinDynamic(t *testing.T) {
	src := `
		keyPerson(X,P) -> psc(X,P).
		company(X) -> psc(X, P).
		control(Y,X), psc(Y,P) -> psc(X,P).
		psc(X,P), psc(Y,P), X != Y -> strongLink(X,Y).
	`
	edb := []ast.Fact{
		ast.NewFact("company", term.String("a")),
		ast.NewFact("company", term.String("b")),
		ast.NewFact("company", term.String("c")),
		ast.NewFact("control", term.String("a"), term.String("b")),
		ast.NewFact("control", term.String("a"), term.String("c")),
	}
	res := run(t, src, edb)
	got := res.Output("strongLink")
	set := make(map[string]bool)
	for _, f := range got {
		set[f.Args[0].Str()+"|"+f.Args[1].Str()] = true
	}
	// a's invented PSC flows to b and c: all pairs linked.
	for _, pair := range []string{"a|b", "a|c", "b|c", "b|a", "c|a", "c|b"} {
		if !set[pair] {
			t.Errorf("missing strong link %s (harmful join lost); got %v", pair, factStrings(got))
		}
	}
}

// TestHarmfulJoinGroundSide checks that ground values joining through the
// same (rewritten) harmful join still work: shared key persons.
func TestHarmfulJoinGroundSide(t *testing.T) {
	src := `
		keyPerson(X,P) -> psc(X,P).
		company(X) -> psc(X, P).
		control(Y,X), psc(Y,P) -> psc(X,P).
		psc(X,P), psc(Y,P), X != Y -> strongLink(X,Y).
	`
	edb := []ast.Fact{
		ast.NewFact("company", term.String("a")),
		ast.NewFact("company", term.String("b")),
		ast.NewFact("keyPerson", term.String("a"), term.String("bob")),
		ast.NewFact("keyPerson", term.String("b"), term.String("bob")),
	}
	res := run(t, src, edb)
	set := make(map[string]bool)
	for _, f := range res.Output("strongLink") {
		set[f.Args[0].Str()+"|"+f.Args[1].Str()] = true
	}
	if !set["a|b"] || !set["b|a"] {
		t.Errorf("bob links a and b; got %v", factStrings(res.Output("strongLink")))
	}
}

func TestPostDirectives(t *testing.T) {
	src := `
		company(X) -> psc(X, P).
		keyPerson(X,P) -> psc(X,P).
		@post("psc","certain").
		@output("psc").
	`
	edb := []ast.Fact{
		ast.NewFact("company", term.String("a")),
		ast.NewFact("keyPerson", term.String("a"), term.String("bob")),
	}
	res := run(t, src, edb)
	got := res.Output("psc")
	wantFacts(t, got, "psc(a,bob)") // certain answers only: null dropped
}

func TestBudgetExceeded(t *testing.T) {
	// Pure Datalog generating a large cross product exceeds a tiny budget.
	var sb strings.Builder
	sb.WriteString("a(X), a(Y) -> pair(X,Y).\n")
	prog := parser.MustParse(sb.String())
	var edb []ast.Fact
	for i := 0; i < 100; i++ {
		edb = append(edb, ast.NewFact("a", term.Int(int64(i))))
	}
	_, err := Run(context.Background(), prog, edb, Options{MaxDerivations: 50})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestExpressionsAndAssignments(t *testing.T) {
	src := `
		emp(N, S), T = S * 2, T > 50 -> rich(N, T).
	`
	edb := []ast.Fact{
		ast.NewFact("emp", term.String("ann"), term.Int(30)),
		ast.NewFact("emp", term.String("joe"), term.Int(20)),
	}
	res := run(t, src, edb)
	wantFacts(t, res.Output("rich"), "rich(ann,60)")
}

func TestSkolemAssignment(t *testing.T) {
	src := `
		p(X), Z = #f(X) -> q(X, Z).
	`
	edb := []ast.Fact{
		ast.NewFact("p", term.String("a")),
		ast.NewFact("p", term.String("b")),
	}
	res := run(t, src, edb)
	got := res.Output("q")
	if len(got) != 2 {
		t.Fatalf("want 2 facts, got %v", factStrings(got))
	}
	if got[0].Args[1] == got[1].Args[1] {
		t.Errorf("skolem nulls for distinct arguments must differ: %v", factStrings(got))
	}
}

func TestDomGuard(t *testing.T) {
	// dom(*) restricts an EGD to ground bindings: the invented owner is
	// exempted, so no violation occurs even though p's second argument is
	// an invented null that differs between companies.
	src := `
		company(X) -> own(P, X).
		dom(*), own(P1,X), own(P2,X) -> P1 = P2.
		own(P,X) -> hasOwner(X).
	`
	edb := []ast.Fact{
		ast.NewFact("company", term.String("a")),
		ast.NewFact("own", term.String("bob"), term.String("a")),
		ast.NewFact("own", term.String("alice"), term.String("a")),
	}
	prog := parser.MustParse(src)
	_, err := Run(context.Background(), prog, edb, Options{})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("two ground owners of a must violate the dom-guarded EGD, got %v", err)
	}
}

func TestMunion(t *testing.T) {
	src := `
		member(G, X), J = munion(X) -> team(G, J).
	`
	edb := []ast.Fact{
		ast.NewFact("member", term.String("g1"), term.String("ann")),
		ast.NewFact("member", term.String("g1"), term.String("joe")),
		ast.NewFact("member", term.String("g2"), term.String("sam")),
	}
	res := run(t, src, edb)
	found := false
	for _, f := range res.Output("team") {
		if f.Args[0].Str() == "g1" && f.Args[1].Str() == "{ann,joe}" {
			found = true
		}
	}
	if !found {
		t.Errorf("final munion for g1 should be {ann,joe}: %v", factStrings(res.Output("team")))
	}
}

func TestOutputDeterminism(t *testing.T) {
	src := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
	`
	edb := []ast.Fact{}
	for i := 0; i < 20; i++ {
		edb = append(edb, ast.NewFact("edge",
			term.String(fmt.Sprintf("n%d", i)), term.String(fmt.Sprintf("n%d", (i+1)%20))))
	}
	first := factStrings(run(t, src, edb).Output("path"))
	for i := 0; i < 3; i++ {
		again := factStrings(run(t, src, edb).Output("path"))
		if strings.Join(first, ";") != strings.Join(again, ";") {
			t.Fatalf("non-deterministic output on run %d", i)
		}
	}
}

// TestCompiledSharedAcrossEngines: one Compiled artifact, several engines
// over different databases — per-run state must be fully isolated.
func TestCompiledSharedAcrossEngines(t *testing.T) {
	src := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
	`
	c, err := Compile(parser.MustParse(src), Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for k := 1; k <= 3; k++ {
		e := c.NewEngine()
		var edb []ast.Fact
		for i := 0; i < k; i++ {
			edb = append(edb, ast.NewFact("edge",
				term.String(fmt.Sprintf("s%d_%d", k, i)), term.String(fmt.Sprintf("s%d_%d", k, i+1))))
		}
		res, err := e.Run(context.Background(), edb)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		if got, want := len(res.Output("path")), k*(k+1)/2; got != want {
			t.Errorf("engine %d: %d paths, want %d", k, got, want)
		}
	}
}

// TestChaseCancellation: a cancelled context aborts the breadth-first
// loop.
func TestChaseCancellation(t *testing.T) {
	src := `a(X), a(Y) -> pair(X,Y).`
	var edb []ast.Fact
	for i := 0; i < 200; i++ {
		edb = append(edb, ast.NewFact("a", term.Int(int64(i))))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, parser.MustParse(src), edb, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// planSettings are the join-plan paths a run can take: the cost-based
// planner with CSE body sharing, the static schedule, and the planner
// forced to its worst order.
var planSettings = []string{"default", "off", "worst"}

// engineFor compiles prog for one of planSettings.
func engineFor(t *testing.T, prog *ast.Program, setting string, opts Options) *Engine {
	t.Helper()
	opts.DisablePlanner = setting == "off"
	c, err := Compile(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", setting, err)
	}
	e := c.NewEngine()
	if setting == "worst" {
		e.Planner().Worst = true
	}
	return e
}

// TestParallelBudgetExceeded: the derivation budget stops the cross
// product on every join-plan path, not only the default one. (The name
// dates from the worker-pool chase, when it also varied the worker count.)
func TestParallelBudgetExceeded(t *testing.T) {
	prog := parser.MustParse("a(X), a(Y) -> pair(X,Y).")
	var edb []ast.Fact
	for i := 0; i < 100; i++ {
		edb = append(edb, ast.NewFact("a", term.Int(int64(i))))
	}
	for _, setting := range planSettings {
		_, err := engineFor(t, prog, setting, Options{MaxDerivations: 50}).Run(context.Background(), edb)
		if !errors.Is(err, ErrBudget) {
			t.Errorf("%s: want ErrBudget, got %v", setting, err)
		}
	}
}

// TestParallelCancellation: a context cancelled part-way through a run,
// rather than before it, aborts with context.Canceled on every join-plan
// path. (The name dates from the worker-pool chase.)
func TestParallelCancellation(t *testing.T) {
	prog := parser.MustParse("a(X), a(Y) -> pair(X,Y).")
	var edb []ast.Fact
	for i := 0; i < 200; i++ {
		edb = append(edb, ast.NewFact("a", term.Int(int64(i))))
	}
	for _, setting := range planSettings {
		for _, after := range []int{1, 2} {
			ctx := &stepCtx{Context: context.Background(), after: after}
			_, err := engineFor(t, prog, setting, Options{}).Run(ctx, edb)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s, after=%d: want context.Canceled, got %v", setting, after, err)
			}
		}
	}
}

// TestAggregateSupersession: an improving aggregate replaces its
// previously admitted fact in place, so at quiescence the relation holds
// exactly one live fact per group — the limit — and rules downstream of
// the aggregate observe the improved value (the replacement re-enters the
// delta queue).
func TestAggregateSupersession(t *testing.T) {
	src := `
		member(G, X), W = mcount(X) -> size(G, W).
		size(G, W), W >= 3 -> big(G).
	`
	edb := []ast.Fact{
		ast.NewFact("member", term.String("g1"), term.String("a")),
		ast.NewFact("member", term.String("g1"), term.String("b")),
		ast.NewFact("member", term.String("g1"), term.String("c")),
		ast.NewFact("member", term.String("g2"), term.String("z")),
	}
	res := run(t, src, edb)
	// Only the final counts survive: size(g1,3) and size(g2,1) — the
	// intermediates size(g1,1), size(g1,2) were superseded in place.
	wantFacts(t, res.Output("size"), "size(g1,3)", "size(g2,1)")
	if rel := res.DB.Lookup("size"); rel.Live() != 2 {
		t.Errorf("live size facts: %d, want 2 (one per group)", rel.Live())
	}
	// The downstream rule fired off the replaced (final) value.
	wantFacts(t, res.Output("big"), "big(g1)")
}

// TestAggregateSupersessionRecursive: the munion fixpoint over a control
// chain converges to one live fact per (rule, group) even though each
// parent's set improves several times while children consume it.
func TestAggregateSupersessionRecursive(t *testing.T) {
	src := `
		seed(X, P), J = munion(P) -> acc(X, J).
		next(Y, X), acc(Y, S), J = munion(S) -> acc(X, J).
	`
	edb := []ast.Fact{
		ast.NewFact("seed", term.String("a"), term.Int(1)),
		ast.NewFact("seed", term.String("a"), term.Int(2)),
		ast.NewFact("next", term.String("a"), term.String("b")),
		ast.NewFact("next", term.String("b"), term.String("c")),
	}
	res := run(t, src, edb)
	wantFacts(t, res.Output("acc"), "acc(a,{1,2})", "acc(b,{1,2})", "acc(c,{1,2})")
	if rel := res.DB.Lookup("acc"); rel.Live() != 3 {
		t.Errorf("live acc facts: %d, want 3", rel.Live())
	}
}

// TestAggregateBudgetCountsReplacements: supersessions are chase steps and
// count against the derivation budget, so mutually improving aggregates
// cannot loop unmetered.
func TestAggregateBudgetCountsReplacements(t *testing.T) {
	src := `
		member(G, X), W = mcount(X) -> size(G, W).
	`
	var edb []ast.Fact
	for i := 0; i < 50; i++ {
		edb = append(edb, ast.NewFact("member", term.String("g"), term.Int(int64(i))))
	}
	prog := parser.MustParse(src)
	// 50 EDB facts + 1 live size fact fit; the 49 replacements do not.
	_, err := Run(context.Background(), prog, edb, Options{MaxDerivations: 60})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected budget error from metered replacements, got %v", err)
	}
}

// TestShuffledAggregateDeterminism stresses canonical admission under
// adversarial input orders: for each shuffled EDB order of the
// AllPSC/munion scenario, the planner on and off admit the same bytes, and
// all orders agree on the final (sorted) ground answers.
func TestShuffledAggregateDeterminism(t *testing.T) {
	persons := dbpedia.Generate(dbpedia.Config{Companies: 30, Persons: 90,
		KeyPersonRate: 1.4, ControlRate: 0.5, Seed: 11})
	facts := persons.All()
	var groundBase string
	for seed := int64(1); seed <= 3; seed++ {
		order := append([]ast.Fact(nil), facts...)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		res := run(t, dbpedia.AllPSCProgram, order)
		noPlan := runWithOpts(t, dbpedia.AllPSCProgram, order, Options{DisablePlanner: true})
		if dbBytes(noPlan) != dbBytes(res) {
			t.Errorf("seed %d: planner off diverges from planner on", seed)
		}
		ground := sortedGround(res, "pscSet")
		if groundBase == "" {
			groundBase = ground
		} else if ground != groundBase {
			t.Errorf("seed %d: final aggregates depend on admission order", seed)
		}
	}
	if groundBase == "" {
		t.Fatal("no ground answers (vacuous)")
	}
}

// TestConcurrentEngines runs several engines concurrently over one shared
// Compiled — the serving topology — and checks all sessions agree. Run
// under -race this covers the shared compiled artifact.
func TestConcurrentEngines(t *testing.T) {
	ownership := graphs.ScaleFree(80, graphs.PaperParams(), 3)
	c, err := Compile(parser.MustParse(graphs.ControlProgram), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	type outcome struct {
		bytes string
		err   error
	}
	done := make(chan outcome, sessions)
	for k := 0; k < sessions; k++ {
		go func() {
			res, err := c.NewEngine().Run(context.Background(), ownership.OwnFacts())
			if err != nil {
				done <- outcome{err: err}
				return
			}
			done <- outcome{bytes: dbBytes(res)}
		}()
	}
	var first string
	for k := 0; k < sessions; k++ {
		o := <-done
		if o.err != nil {
			t.Fatalf("session: %v", o.err)
		}
		if k == 0 {
			first = o.bytes
		} else if o.bytes != first {
			t.Errorf("sessions diverge")
		}
	}
}

// TestSkolemBodyAssignments pins the admit-phase routing: rules whose
// bodies mint Skolem nulls while matching run at their canonical position
// during admission and still produce deterministic results.
func TestSkolemBodyAssignments(t *testing.T) {
	src := `
		p(X), Z = #f(X) -> q(X, Z).
		q(X, Z), p(Y), W = #g(Z, Y) -> r(X, Y, W).
	`
	var edb []ast.Fact
	for i := 0; i < 12; i++ {
		edb = append(edb, ast.NewFact("p", term.Int(int64(i))))
	}
	base := dbBytes(run(t, src, edb))
	if got := dbBytes(run(t, src, edb)); got != base {
		t.Error("skolem-body program is not deterministic")
	}
	if !strings.Contains(base, "r[") {
		t.Fatalf("skolem chain produced no r facts:\n%s", base)
	}
}

// TestTightBudgetDuplicateHeavyBatch: candidate buffering is a runaway
// backstop, never a budget check — a duplicate-heavy program that admits
// few facts must complete under a tight MaxDerivations even though its
// batches enumerate far more candidate matches than the budget.
func TestTightBudgetDuplicateHeavyBatch(t *testing.T) {
	// Every (a, a) pair matches, but all firings emit the same single
	// fact: thousands of candidates, one admission.
	prog := parser.MustParse("a(X), a(Y) -> one(\"yes\").")
	var edb []ast.Fact
	for i := 0; i < 60; i++ {
		edb = append(edb, ast.NewFact("a", term.Int(int64(i))))
	}
	res, err := Run(context.Background(), prog, edb, Options{MaxDerivations: 61})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Output("one")); got != 1 {
		t.Errorf("%d facts, want 1", got)
	}
}

// stepCtx is a context whose Err starts reporting Canceled after the
// n-th poll — a deterministic way to cancel mid-run.
type stepCtx struct {
	context.Context
	polls, after int
}

func (c *stepCtx) Err() error {
	if c.polls++; c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelResumeLosesNoDeltas: cancelling mid-batch must not drop the
// in-flight deltas — a resumed Run picks the batch back up and quiesces
// with exactly the ground answers of an uninterrupted run.
func TestCancelResumeLosesNoDeltas(t *testing.T) {
	ownership := graphs.ScaleFree(100, graphs.PaperParams(), 5)
	prog := parser.MustParse(graphs.ControlProgram)
	want := sortedGround(run(t, graphs.ControlProgram, ownership.OwnFacts()), "control")
	if want == "" {
		t.Fatal("vacuous scenario")
	}
	for _, after := range []int{1, 3, 25} {
		c, err := Compile(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e := c.NewEngine()
		_, err = e.Run(&stepCtx{Context: context.Background(), after: after}, ownership.OwnFacts())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: want cancellation, got %v", after, err)
		}
		res, err := e.Run(context.Background(), nil)
		if err != nil {
			t.Fatalf("after=%d: resume: %v", after, err)
		}
		if got := sortedGround(res, "control"); got != want {
			t.Errorf("after=%d: resumed run lost derivations (%d vs %d bytes)",
				after, len(got), len(want))
		}
	}
}
