package vadalog

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/gen/dbpedia"
	"repro/internal/gen/graphs"
	"repro/internal/gen/iwarded"
	"repro/internal/owlqa"
	"repro/internal/pipeline"
)

// groundOutputs runs prog over facts and returns the sorted ground facts
// of every IDB predicate, as one canonical string.
func groundOutputs(t *testing.T, src string, facts []Fact, opts *Options) string {
	t.Helper()
	prog := MustParse(src)
	sess := newSession(t, prog, opts)
	sess.Load(facts...)
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for pred := range prog.IDBPreds() {
		if strings.Contains(pred, "__tag") || strings.HasPrefix(pred, "exl_") {
			continue
		}
		for _, f := range sess.Output(pred) {
			if f.IsGround() {
				lines = append(lines, f.String())
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// seamAnswer runs prog at the engine seam — built the way the digest tests
// build it: the chase or the pipeline, the planner off (DisablePlanner) or
// forced to its worst join order (Worst) — over the facts of chunks, one
// drive per chunk (the engines' Run loads a chunk, then reasons), and renders
// the facts of preds as one sorted multiset of null patterns: constants as
// written, each labelled null as _k for the first position k holding it
// (core.IsoEqual's notion). A ground fact's pattern is the fact itself, so
// ground answers compare exactly and null-carrying ones up to the naming
// of their nulls.
func seamAnswer(t *testing.T, prog *Program, chunks [][]Fact, preds []string, onChase, off, worst bool) string {
	t.Helper()
	cfg := admit.Config{DisablePlanner: off}
	var (
		output func(string) []Fact
		err    error
	)
	if onChase {
		var e *chase.Engine
		if e, err = chase.New(prog, cfg); err == nil {
			if worst {
				e.Planner().Worst = true
			}
			for _, facts := range chunks {
				if _, err = e.Run(context.Background(), facts); err != nil {
					break
				}
			}
			output = e.Output
		}
	} else {
		var s *pipeline.Session
		if s, err = pipeline.New(prog, cfg); err == nil {
			if worst {
				s.Planner().Worst = true
			}
			for _, facts := range chunks {
				if err = s.Run(context.Background(), facts); err != nil {
					break
				}
			}
			output = s.Output
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, pred := range preds {
		for _, f := range output(pred) {
			var sb strings.Builder
			sb.WriteString(f.Pred)
			for _, v := range f.Args {
				sb.WriteByte(' ')
				if !v.IsNull() {
					sb.WriteString(ast.SourceString(v))
					continue
				}
				first := slices.IndexFunc(f.Args, func(w Value) bool { return w.IsNull() && w.NullID() == v.NullID() })
				fmt.Fprintf(&sb, "_%d", first)
			}
			lines = append(lines, sb.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// renameScenario is the rename relation of the front-end oracle. Every
// predicate of prog gets a fresh name, and every variable of a rule an
// underscore-initial one shaped _anon<i>_<j>, the names the compiler once
// gave anonymous positions; in a rule without existentials (whose Skolem
// arguments are all its body variables) a body variable occurring once
// becomes _ itself. The program is rendered and re-parsed, the facts are
// renamed alike, and back maps each new predicate name to its old one.
func renameScenario(t *testing.T, prog *Program, facts []Fact) (renamed *Program, renamedFacts []Fact, back map[string]string) {
	t.Helper()
	names, back := make(map[string]string), make(map[string]string)
	pred := func(p string) string {
		n, ok := names[p]
		if !ok {
			n = fmt.Sprintf("rel%d", len(names))
			names[p], back[n] = n, p
		}
		return n
	}
	out := ast.NewProgram()
	for _, r := range prog.Rules {
		if len(r.Assignments) > 0 || r.Aggregate != nil || r.EGD != nil || r.UsesDom || len(r.DomVars) > 0 {
			t.Fatalf("the rename relation covers atoms and conditions only, not %s", r)
		}
		uses := make(map[string]int)
		for _, a := range slices.Concat(r.Body, r.Heads) {
			for _, arg := range a.Args {
				if arg.IsVar {
					uses[arg.Var]++
				}
			}
		}
		for _, c := range r.Conds {
			for _, v := range c.L.Vars(c.R.Vars(nil)) {
				uses[v] += 2
			}
		}
		ground := len(r.Existentials()) == 0
		vars := make(map[string]string)
		rename := func(v string) string {
			if v == "_" {
				return v
			}
			n, ok := vars[v]
			if !ok {
				n = fmt.Sprintf("_anon%d_%d", len(vars)/2, len(vars)%2)
				vars[v] = n
			}
			return n
		}
		atoms := func(as []ast.Atom) []ast.Atom {
			out := make([]ast.Atom, len(as))
			for i, a := range as {
				out[i] = ast.Atom{Pred: pred(a.Pred), Negated: a.Negated, Args: slices.Clone(a.Args)}
				for j, arg := range a.Args {
					switch {
					case !arg.IsVar:
					case ground && !a.Negated && uses[arg.Var] == 1:
						out[i].Args[j].Var = "_"
					default:
						out[i].Args[j].Var = rename(arg.Var)
					}
				}
			}
			return out
		}
		nr := &ast.Rule{Body: atoms(r.Body), Heads: atoms(r.Heads), IsConstraint: r.IsConstraint}
		for _, c := range r.Conds {
			nr.Conds = append(nr.Conds, ast.Condition{Op: c.Op, L: renameExpr(c.L, rename), R: renameExpr(c.R, rename)})
		}
		out.AddRule(nr)
	}
	for _, f := range facts {
		renamedFacts = append(renamedFacts, MakeFact(pred(f.Pred), f.Args...))
	}
	return MustParse(out.String()), renamedFacts, back
}

// renameExpr renames the variables of e.
func renameExpr(e ast.Expr, rename func(string) string) ast.Expr {
	switch ex := e.(type) {
	case ast.VarExpr:
		return ast.VarExpr{Name: rename(ex.Name)}
	case ast.BinExpr:
		return ast.BinExpr{Op: ex.Op, L: renameExpr(ex.L, rename), R: renameExpr(ex.R, rename)}
	case ast.FuncExpr:
		args := make([]ast.Expr, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = renameExpr(a, rename)
		}
		return ast.FuncExpr{Name: ex.Name, Args: args}
	}
	return e
}

// renameBack maps a seamAnswer of a renamed program back to the original
// predicate names.
func renameBack(answer string, back map[string]string) string {
	if answer == "" {
		return answer
	}
	lines := strings.Split(answer, "\n")
	for i, l := range lines {
		p, args, _ := strings.Cut(l, " ")
		lines[i] = back[p] + " " + args
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestRandomScenarioPolicyAgreement is the central correctness property:
// on randomly generated warded scenarios, every engine/policy combination
// that terminates yields the same ground answers. At the engine seam it is
// also the differential and metamorphic oracle of the front end: both
// engines, at every planner setting, on the program and on three
// re-parsed shuffles of its rule order — rule order numbers the rules and
// names their Skolem functions — derive the same ground facts and the same
// multiset of null patterns (seamAnswer); so do both engines on the EDB
// shuffled and cut into three chunks with a drive after each (open
// relations), and on the program with every predicate and variable renamed
// (renameScenario), mapped back.
func TestRandomScenarioPolicyAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		mixed := rng.Intn(3)
		ward := 1 + rng.Intn(3)
		noward := rng.Intn(3)
		harmful := rng.Intn(3)
		cfg := iwarded.Config{
			Name:      fmt.Sprintf("rand%d", trial),
			Linear:    6 + rng.Intn(6),
			Join:      mixed + ward + noward + harmful,
			LinearRec: rng.Intn(3),
			JoinRec:   rng.Intn(ward + 1),
			Exist:     2 + rng.Intn(3),
			JoinMixed: mixed, JoinWard: ward, JoinNoWard: noward, JoinHarmful: harmful,
			FactsPerRel:   15,
			ComponentSize: 3,
			Seed:          int64(trial),
		}
		g, err := iwarded.Generate(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		base := groundOutputs(t, g.Source, g.Facts, nil)
		variants := []struct {
			name string
			opts Options
		}{
			{"chase", Options{Engine: EngineChase}},
			{"nosummary", Options{Policy: PolicyNoSummary}},
		}
		if harmful == 0 {
			// The trivial global isomorphism check is only complete on
			// harmless programs (paper Example 8); the paper's own Sec. 6.6
			// comparison uses AllPSC, which has no harmful joins.
			variants = append(variants, struct {
				name string
				opts Options
			}{"trivial", Options{Policy: PolicyTrivialIso}})
		}
		for _, variant := range variants {
			got := groundOutputs(t, g.Source, g.Facts, &variant.opts)
			if got != base {
				t.Errorf("trial %d: %s diverges from pipeline/full\n baseline %d lines, got %d lines",
					trial, variant.name, len(strings.Split(base, "\n")), len(strings.Split(got, "\n")))
			}
		}

		prog := MustParse(g.Source)
		var preds []string
		for pred := range prog.IDBPreds() {
			preds = append(preds, pred)
		}
		sort.Strings(preds)
		programs := []*Program{prog}
		order := rand.New(rand.NewSource(int64(trial))) // rng keeps drawing the trials
		for k := 0; k < 3; k++ {
			shuffled := MustParse(g.Source)
			order.Shuffle(len(shuffled.Rules), func(i, j int) {
				shuffled.Rules[i], shuffled.Rules[j] = shuffled.Rules[j], shuffled.Rules[i]
			})
			programs = append(programs, MustParse(shuffled.String()))
		}
		want := seamAnswer(t, prog, [][]Fact{g.Facts}, preds, false, false, false)
		for k, p := range programs {
			for _, onChase := range []bool{false, true} {
				for _, planner := range []string{"default", "off", "worst"} {
					got := seamAnswer(t, p, [][]Fact{g.Facts}, preds, onChase, planner == "off", planner == "worst")
					if got != want {
						t.Errorf("trial %d, rule order %d, chase %v, planner %s: answer differs from the pipeline's on the program as generated\n got %d facts, want %d",
							trial, k, onChase, planner, strings.Count(got, "\n")+1, strings.Count(want, "\n")+1)
					}
				}
			}
		}
		renamed, renamedFacts, back := renameScenario(t, prog, g.Facts)
		var renamedPreds []string
		for pred := range renamed.IDBPreds() {
			renamedPreds = append(renamedPreds, pred)
		}
		for _, onChase := range []bool{false, true} {
			got := renameBack(seamAnswer(t, renamed, [][]Fact{renamedFacts}, renamedPreds, onChase, false, false), back)
			if got != want {
				t.Errorf("trial %d, chase %v: the renamed program, mapped back, derives another answer\n got %d facts, want %d",
					trial, onChase, strings.Count(got, "\n")+1, strings.Count(want, "\n")+1)
			}
		}
		facts := slices.Clone(g.Facts)
		order.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
		third := len(facts) / 3
		chunks := [][]Fact{facts[:third], facts[third : 2*third], facts[2*third:]}
		for _, onChase := range []bool{false, true} {
			if got := seamAnswer(t, prog, chunks, preds, onChase, false, false); got != want {
				t.Errorf("trial %d, chase %v: three shuffled chunks with a drive between them derive another answer than one drive\n got %d facts, want %d",
					trial, onChase, strings.Count(got, "\n")+1, strings.Count(want, "\n")+1)
			}
		}
	}
}

// TestEnginesAgreeOnExamples cross-validates the streaming pipeline
// against the reference chase on every examples/ scenario: the two
// engines must return identical ground answers over identical inputs.
func TestEnginesAgreeOnExamples(t *testing.T) {
	ownership := graphs.ScaleFree(120, graphs.PaperParams(), 1)
	persons := dbpedia.Generate(dbpedia.Config{Companies: 80, Persons: 240,
		KeyPersonRate: 1.2, ControlRate: 0.35, Seed: 7})
	quickstart := `
		company(X) -> keyPerson(P, X).
		control(X,Y), keyPerson(P,X) -> keyPerson(P,Y).
		@output("keyPerson").
	`
	quickFacts := []Fact{
		MakeFact("company", Str("acme")),
		MakeFact("company", Str("subco")),
		MakeFact("control", Str("acme"), Str("subco")),
		MakeFact("keyPerson", Str("ada"), Str("acme")),
	}
	spouseFacts := []Fact{
		MakeFact("spouse", Str("a"), Str("b"), Int(1990), Str("nyc"), Int(2000)),
		MakeFact("spouse", Str("c"), Str("d"), Int(1995), Str("rome"), Int(2005)),
	}
	csvpipeline := `
		own(X,Y,W), W > 0.5 -> control(X,Y).
		control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
		@output("control").
	`
	csvFacts := []Fact{
		MakeFact("own", Str("acme"), Str("subco"), Flt(0.7)),
		MakeFact("own", Str("acme"), Str("other"), Flt(0.2)),
		MakeFact("own", Str("subco"), Str("deepco"), Flt(0.6)),
		MakeFact("own", Str("other"), Str("deepco"), Flt(0.3)),
	}
	// AllPSC (munion) is included since the supersession layer: aggregate
	// intermediates are transient — an improving group replaces its
	// previously admitted fact in place — so both engines converge to the
	// same final database (exactly one fact per group and rule) and the
	// comparison is strict full-database equality, aggregate predicates
	// included.
	scenarios := []struct {
		name  string
		src   string
		facts []Fact
	}{
		{"quickstart", quickstart, quickFacts},
		{"companycontrol", graphs.ControlProgram, ownership.OwnFacts()},
		{"csvpipeline", csvpipeline, csvFacts},
		{"psc", dbpedia.PSCProgram, persons.All()},
		{"allpsc", dbpedia.AllPSCProgram, persons.All()},
		{"stronglinks", dbpedia.StrongLinksProgram(3), persons.All()},
		{"ontology", owlqa.Example1Spouse + "\n@output(\"spouse\").\n", spouseFacts},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			pipe := groundOutputs(t, sc.src, sc.facts, nil)
			chase := groundOutputs(t, sc.src, sc.facts, &Options{Engine: EngineChase})
			if pipe != chase {
				t.Errorf("engines diverge: pipeline %d lines, chase %d lines",
					len(strings.Split(pipe, "\n")), len(strings.Split(chase, "\n")))
			}
			if pipe == "" {
				t.Error("scenario produced no ground answers (vacuous comparison)")
			}
		})
	}
}

// reverseFacts returns a reversed copy of facts (adversarial admission
// order).
func reverseFacts(facts []Fact) []Fact {
	out := make([]Fact, len(facts))
	for i, f := range facts {
		out[len(facts)-1-i] = f
	}
	return out
}

// TestAggregateAdmissionOrderIndependence is the acceptance property of
// the supersession layer: on the AllPSC/munion scenario, chase and
// pipeline produce identical final databases (intermediate aggregate
// predicates included) under different fact-admission orders — superseded
// intermediates are replaced in place, so only the limit of each group's
// improving stream survives quiescence.
func TestAggregateAdmissionOrderIndependence(t *testing.T) {
	persons := dbpedia.Generate(dbpedia.Config{Companies: 40, Persons: 120,
		KeyPersonRate: 1.4, ControlRate: 0.5, Seed: 11})
	facts := persons.All()
	rev := reverseFacts(facts)
	var dbs []string
	for _, opts := range []Options{{}, {Engine: EngineChase}} {
		for _, order := range [][]Fact{facts, rev} {
			dbs = append(dbs, groundOutputs(t, dbpedia.AllPSCProgram, order, &opts))
		}
	}
	for i, db := range dbs[1:] {
		if db != dbs[0] {
			t.Errorf("variant %d diverges from pipeline/forward: %d vs %d lines",
				i+1, len(strings.Split(db, "\n")), len(strings.Split(dbs[0], "\n")))
		}
	}
	if dbs[0] == "" {
		t.Fatal("scenario produced no facts (vacuous comparison)")
	}
}

// TestAggregateOneFactPerGroup pins the quiescence invariant on a
// handcrafted control chain: each (rule, group) pair retains exactly one
// pscSet fact — the final union — in both engines and both admission
// orders, and set-valued contributions are flattened so c3 inherits the
// union of its ancestors' PSCs, not a set of intermediate set values.
func TestAggregateOneFactPerGroup(t *testing.T) {
	facts := []Fact{
		MakeFact("keyPerson", Str("c1"), Str("p1")),
		MakeFact("keyPerson", Str("c1"), Str("p2")),
		MakeFact("keyPerson", Str("c2"), Str("p3")),
		MakeFact("person", Str("p1")),
		MakeFact("person", Str("p2")),
		MakeFact("person", Str("p3")),
		MakeFact("control", Str("c1"), Str("c2")),
		MakeFact("control", Str("c2"), Str("c3")),
	}
	// Rule 1 (direct key persons) and rule 2 (union of the parent's sets)
	// each keep one fact per company: c2 gets {p3} directly and {p1,p2}
	// from c1; c3 has no direct key persons and inherits the flattened
	// union of both of c2's sets.
	want := strings.Join([]string{
		"pscSet(c1,{p1,p2})",
		"pscSet(c2,{p1,p2})",
		"pscSet(c2,{p3})",
		"pscSet(c3,{p1,p2,p3})",
	}, "\n")
	for _, variant := range []struct {
		name  string
		opts  Options
		facts []Fact
	}{
		{"pipeline", Options{}, facts},
		{"pipeline-reversed", Options{}, reverseFacts(facts)},
		{"chase", Options{Engine: EngineChase}, facts},
		{"chase-reversed", Options{Engine: EngineChase}, reverseFacts(facts)},
	} {
		if got := groundOutputs(t, dbpedia.AllPSCProgram, variant.facts, &variant.opts); got != want {
			t.Errorf("%s:\n got  %q\n want %q", variant.name, got, want)
		}
	}
}

// TestStreamSkipsRetractedIntermediates: when an aggregate improvement
// collides with an independently derived identical fact, the superseded
// row is retracted — and the streaming surface must not yield it.
func TestStreamSkipsRetractedIntermediates(t *testing.T) {
	src := `
		a(X), W = mcount(X) -> size(W).
		seed(W) -> size(W).
		@output("size").
	`
	sess := newSession(t, MustParse(src), nil)
	sess.Load(
		MakeFact("seed", Int(2)),
		MakeFact("a", Str("x")),
		MakeFact("a", Str("y")),
	)
	// Run to quiescence first: size(1) is superseded by size(2), which
	// (depending on the pull interleaving) either replaced it in place or
	// collided with seed's copy and retracted it. Streaming the quiesced
	// predicate must skip the dead row instead of yielding its stale fact.
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	got := pull(t, sess, "size")
	sort.Strings(got)
	if strings.Join(got, ";") != "size(2)" {
		t.Errorf("stream yielded %v, want just size(2)", got)
	}
}

// TestNonImprovingMatchStillEmits: a post-aggregate condition that also
// reads a non-group body variable can pass on a later, non-improving
// match; the emission must not be skipped (the improved-only fast path
// applies only when conditions depend on the result and group alone).
func TestNonImprovingMatchStillEmits(t *testing.T) {
	src := `
		a(G, X, T), W = mcount(X), W >= T -> out(G, W).
		@output("out").
	`
	facts := []Fact{
		// First match: W=1, threshold 10 -> condition fails, no emission.
		MakeFact("a", Str("g"), Str("x"), Int(10)),
		// Same contributor, lower threshold: W stays 1 (not improved) but
		// 1 >= 1 now passes -> out(g,1) must be admitted.
		MakeFact("a", Str("g"), Str("x"), Int(1)),
	}
	for _, opts := range []Options{{}, {Engine: EngineChase}} {
		if got := groundOutputs(t, src, facts, &opts); got != "out(g,1)" {
			t.Errorf("engine %d: %q, want out(g,1)", opts.Engine, got)
		}
	}
}

// TestTrivialIsoIncompleteOnHarmfulJoins reproduces paper Example 8: the
// global isomorphism cut of the trivial technique prunes facts whose
// subtrees would have fed harmful joins, losing answers that the full
// strategy (per-tree isomorphism in the warded forest) retains. This is
// precisely why the paper restricts pruning to Harmless Warded Datalog±
// and rewrites harmful joins first.
func TestTrivialIsoIncompleteOnHarmfulJoins(t *testing.T) {
	src := `
		company(X) -> psc(X, P).
		control(Y,X), psc(Y,P) -> psc(X,P).
		psc(X,P), psc(Y,P), X != Y -> strongLink(X,Y).
		@output("strongLink").
	`
	facts := []Fact{
		MakeFact("company", Str("a")),
		MakeFact("company", Str("b")),
		MakeFact("control", Str("a"), Str("b")),
	}
	full := groundOutputs(t, src, facts, nil)
	trivial := groundOutputs(t, src, facts, &Options{Policy: PolicyTrivialIso})
	if !strings.Contains(full, "strongLink(a,b)") {
		t.Fatalf("full strategy must find the link via the shared invented PSC: %q", full)
	}
	if strings.Contains(trivial, "strongLink(a,b)") {
		t.Skip("trivial technique happened to keep the right fact on this ordering")
	}
}

// TestStreamMatchesDrain: streaming a predicate yields exactly the facts
// the drained session materializes.
func TestStreamMatchesDrain(t *testing.T) {
	src := `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		@output("path").
	`
	var facts []Fact
	for i := 0; i < 12; i++ {
		facts = append(facts, MakeFact("edge", Int(int64(i)), Int(int64((i*3+1)%12))))
	}
	drained := groundOutputs(t, src, facts, nil)

	sess := newSession(t, MustParse(src), nil)
	sess.Load(facts...)
	lines := pull(t, sess, "path")
	sort.Strings(lines)
	if got := strings.Join(lines, "\n"); got != drained {
		t.Errorf("stream (%d) differs from drain (%d)", len(lines), len(strings.Split(drained, "\n")))
	}
}

// TestSkolemPolicyAgreesWhenTerminating: on scenarios without
// null-generating recursion the Skolem chase terminates and must agree.
func TestSkolemPolicyAgreesWhenTerminating(t *testing.T) {
	cfg := iwarded.Config{
		Name: "skolemsafe", Linear: 8, Join: 4,
		JoinMixed: 1, JoinWard: 1, JoinNoWard: 1, JoinHarmful: 1,
		Exist: 2, FactsPerRel: 15, ComponentSize: 3, Seed: 5,
	}
	g, err := iwarded.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := groundOutputs(t, g.Source, g.Facts, nil)
	skolem := groundOutputs(t, g.Source, g.Facts, &Options{Policy: PolicySkolem, MaxDerivations: 2_000_000})
	if base != skolem {
		t.Error("skolem chase diverges on a terminating scenario")
	}
}

// TestOrderByTiesAgreeAcrossEngines: @post orderBy breaks ties by the
// canonical output order, not by admission order — which the breadth-first
// chase and the depth-first pipeline do not share — so orderBy + limit cuts
// the same facts on both engines and for every chase worker count, even
// when the limit falls inside a tie group.
func TestOrderByTiesAgreeAcrossEngines(t *testing.T) {
	src := pathSrc + `@post("path", "orderBy", 1). @post("path", "limit", 4).`
	// Two diamonds hanging off one source: n0 reaches seven nodes, so the
	// limit of 4 cuts inside the orderBy tie group of n0.
	var facts []Fact
	for _, e := range [][2]string{
		{"n0", "n9"}, {"n0", "n5"}, {"n9", "n3"}, {"n5", "n3"}, {"n3", "n7"},
		{"n7", "n1"}, {"n7", "n8"}, {"n1", "n2"}, {"n8", "n2"},
	} {
		facts = append(facts, MakeFact("edge", Str(e[0]), Str(e[1])))
	}
	want := []string{"path(n0,n1)", "path(n0,n2)", "path(n0,n3)", "path(n0,n5)"}
	for _, opts := range []*Options{
		{Engine: EnginePipeline},
		{Engine: EngineChase},
	} {
		s := newSession(t, MustParse(src), opts)
		s.Load(facts...)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range s.Output("path") {
			got = append(got, f.String())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("engine %v: Output = %v, want %v", opts.Engine, got, want)
		}
	}
}
