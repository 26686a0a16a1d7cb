// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (Sec. 6) through BenchmarkFigures, a loop over
// internal/experiments' figure registry (what cmd/vadabench prints),
// next to scenario, ablation and micro benchmarks of single layers.
//
// Instance sizes are scaled by REPRO_BENCH_SCALE (fraction of the paper's
// sizes, default 0.01), which means exactly what `vadabench -scale` means,
// so `go test -bench=.` completes in minutes; raise it to approach paper
// scale.
package repro

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen/dbpedia"
	"repro/internal/gen/graphs"
	"repro/internal/gen/ibench"
	"repro/internal/gen/iwarded"
	"repro/internal/gen/lubm"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/vadalog"
)

func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.01
}

// runOnce executes one reasoning task and reports facts/sec-style metrics.
func runOnce(b *testing.B, src string, facts []ast.Fact, outPred string, opts *vadalog.Options) {
	b.Helper()
	prog, err := vadalog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	r, err := vadalog.Compile(prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	sess := r.NewSession()
	sess.Load(facts...)
	if err := sess.Run(); err != nil {
		b.Fatal(err)
	}
	if outPred != "" {
		b.ReportMetric(float64(len(sess.Output(outPred))), "output-facts")
	}
	b.ReportMetric(float64(sess.Derivations()), "derived-facts")
}

// BenchmarkFigures runs every table of the paper's evaluation, one
// sub-benchmark per experiments.Figures entry (BenchmarkFigures/Fig5a,
// ...), at REPRO_BENCH_SCALE: exactly the rows `vadabench -scale` prints
// at that scale, logged with the result (in full under -v). It reports
// the rows' summed reasoning seconds (reason-s), output facts and derived
// facts.
func BenchmarkFigures(b *testing.B) {
	for _, fig := range experiments.Figures {
		b.Run(fig.ID, func(b *testing.B) {
			var tb *experiments.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tb, err = fig.Run(benchScale()); err != nil {
					b.Fatal(err)
				}
			}
			var secs float64
			var out, derived int
			for _, r := range tb.Rows {
				secs += r.Seconds
				out += r.Output
				derived += r.Derived
			}
			b.ReportMetric(secs, "reason-s")
			b.ReportMetric(float64(out), "output-facts")
			b.ReportMetric(float64(derived), "derived-facts")
			b.Log("\n" + tb.String())
		})
	}
}

// BenchmarkAblation_SkewJoin isolates the cost-based join planner on a
// skewed join chain: src(X,K), wide(X,W), narrow(W,Z) -> out(K,Z), where
// wide fans out 1000 rows per X and narrow holds one row per X. The
// static schedule's bound-count ordering ties wide against narrow and the
// source-order tie-break enumerates the wide side first (1000-row
// intermediates per delta, 500-row src buckets per wide delta); the
// planner's distinct-ID estimates join the narrow side first and the
// intermediates collapse to ~1 row. Same bytes either way — only the
// enumeration order changes.
func BenchmarkAblation_SkewJoin(b *testing.B) {
	prog, facts := skewJoin()
	// Planner-off is an engine option, not a public one: both engines are
	// driven directly.
	engines := []struct {
		name string
		run  func(opts pipeline.Options) (derived, out int, err error)
	}{
		{"pipeline", func(opts pipeline.Options) (int, int, error) {
			s, err := pipeline.New(prog, opts)
			if err != nil {
				return 0, 0, err
			}
			if err := s.Run(context.Background(), facts); err != nil {
				return 0, 0, err
			}
			return s.Derivations(), len(s.Output("out")), nil
		}},
		{"chase", func(opts chase.Options) (int, int, error) {
			res, err := chase.Run(context.Background(), prog, facts, opts)
			if err != nil {
				return 0, 0, err
			}
			return res.Derivations, len(res.Output("out")), nil
		}},
	}
	for _, eng := range engines {
		derived := map[bool]int{} // per planner setting: same bytes, same count
		for _, plan := range []bool{true, false} {
			opts := pipeline.Options{DisablePlanner: !plan}
			b.Run(fmt.Sprintf("%s/plan=%v", eng.name, plan), func(b *testing.B) {
				var d, out int
				for i := 0; i < b.N; i++ {
					var err error
					if d, out, err = eng.run(opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(out), "output-facts")
				b.ReportMetric(float64(d), "derived-facts")
				derived[plan] = d
				if other, ok := derived[!plan]; ok && other != d {
					b.Fatalf("planner on and off derive different facts: %d vs %d", derived[true], derived[false])
				}
			})
		}
	}
}

// skewJoin is the program and data of BenchmarkAblation_SkewJoin.
func skewJoin() (*ast.Program, []ast.Fact) {
	const (
		xs      = 10   // distinct X values
		fanout  = 1000 // wide rows per X
		srcPerX = 500  // src rows per X
	)
	src := `
		src(X,K), wide(X,W), narrow(W,Z) -> out(K,Z).
		@output("out").
	`
	var facts []ast.Fact
	for x := 0; x < xs; x++ {
		for k := 0; k < srcPerX; k++ {
			facts = append(facts, ast.NewFact("src", term.Int(int64(x)), term.Int(int64(x*srcPerX+k))))
		}
		for j := 0; j < fanout; j++ {
			facts = append(facts, ast.NewFact("wide", term.Int(int64(x)), term.Int(int64(x*fanout+j))))
		}
		// One narrow row per X, keyed on a W the wide side contains.
		facts = append(facts, ast.NewFact("narrow", term.Int(int64(x*fanout)), term.Int(int64(x+1))))
	}
	return parser.MustParse(src), facts
}

// BenchmarkCompileOnceVsPerQuery measures the amortized per-query cost of
// sharing one compiled Reasoner across requests versus rebuilding a
// Session (wardedness analysis + harmful-join rewriting + rule
// compilation + plan construction) for every query — the serving scenario
// the Compile/Query API exists for — on a rule-heavy iWarded scenario
// with a small per-request fact set.
func BenchmarkCompileOnceVsPerQuery(b *testing.B) {
	cfg, ok := iwarded.Scenario("synthA")
	if !ok {
		b.Fatal("synthA scenario missing")
	}
	cfg.FactsPerRel = 5
	g, err := iwarded.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prog := vadalog.MustParse(g.Source)
	b.Run("shared-reasoner", func(b *testing.B) {
		r, err := vadalog.Compile(prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Query(context.Background(), g.Facts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-per-query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := vadalog.Compile(prog, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Query(context.Background(), g.Facts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMicroInsert measures per-fact insert cost (interning, hashed
// duplicate check, tuple append) on a fresh relation per batch.
func BenchmarkMicroInsert(b *testing.B) {
	const n = 10_000
	facts := make([]ast.Fact, n)
	for i := range facts {
		facts[i] = ast.NewFact("p",
			term.String(fmt.Sprintf("c%d", i%997)),
			term.Int(int64(i)),
			term.Int(int64(i%131)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := storage.NewDatabase()
		rel := db.Rel("p", 3)
		for _, f := range facts {
			rel.Insert(&core.FactMeta{Fact: f})
		}
		if rel.Len() != n {
			b.Fatalf("len: %d", rel.Len())
		}
	}
	b.ReportMetric(float64(n), "facts/op")
}

// BenchmarkMicroIndexedProbe measures one indexed lookup through the
// value boundary (Lookup: IDOf translation + hashed probe). The dynamic
// index is fully built before timing; the acceptance target is ≥2× fewer
// allocations per probe than the former string-key path (which allocated
// a rendered key per probe; this path allocates none).
func BenchmarkMicroIndexedProbe(b *testing.B) {
	const n = 10_000
	db := storage.NewDatabase()
	rel := db.Rel("p", 3)
	for i := 0; i < n; i++ {
		rel.Insert(&core.FactMeta{Fact: ast.NewFact("p",
			term.String(fmt.Sprintf("c%d", i%997)),
			term.Int(int64(i)),
			term.Int(int64(i%131)))})
	}
	probe := []term.Value{term.String("c123"), {}, {}}
	rel.Lookup(1, probe) // build the index outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		probe[0] = term.String(probeNames[i%len(probeNames)])
		total += len(rel.Lookup(1, probe))
	}
	if total == 0 {
		b.Fatal("probes matched nothing")
	}
}

var probeNames = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = fmt.Sprintf("c%d", i*13%997)
	}
	return out
}()

// BenchmarkMicroIndexedProbeIDs measures the pure ID-space probe the
// matcher's hot loop uses (no value translation at all).
func BenchmarkMicroIndexedProbeIDs(b *testing.B) {
	const n = 10_000
	db := storage.NewDatabase()
	rel := db.Rel("p", 3)
	for i := 0; i < n; i++ {
		rel.Insert(&core.FactMeta{Fact: ast.NewFact("p",
			term.String(fmt.Sprintf("c%d", i%997)),
			term.Int(int64(i)),
			term.Int(int64(i%131)))})
	}
	in := db.Interner()
	ids := make([]uint32, len(probeNames))
	for i, s := range probeNames {
		id, ok := in.IDOf(term.String(s))
		if !ok {
			b.Fatalf("probe constant %q not interned", s)
		}
		ids[i] = id
	}
	probe := make([]uint32, 3)
	probe[0] = ids[0]
	rel.LookupIDs(1, probe) // build the index outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		probe[0] = ids[i%len(ids)]
		total += len(rel.LookupIDs(1, probe))
	}
	if total == 0 {
		b.Fatal("probes matched nothing")
	}
}

// BenchmarkAggregate_Supersession measures the aggregate-heavy scenarios
// under the supersession layer (PR 3): companycontrol's recursive msum
// over a scale-free ownership graph and AllPSC's munion over the DBpedia
// shape. Superseded intermediates are replaced in place, so live-facts
// (and with it retained bytes and insert work) stays at one fact per
// aggregate group instead of one per improvement.
func BenchmarkAggregate_Supersession(b *testing.B) {
	n := int(50_000 * benchScale())
	if n < 200 {
		n = 200
	}
	g := graphs.RealLike(n, 42)
	companies := int(20_000 * benchScale())
	if companies < 300 {
		companies = 300
	}
	psc := dbpedia.Generate(dbpedia.Config{Companies: companies, Persons: companies * 4,
		KeyPersonRate: 1.2, ControlRate: 0.35, Seed: 7})
	for _, sc := range []struct {
		name  string
		src   string
		facts []ast.Fact
	}{
		{"companycontrol-msum", graphs.ControlProgram, g.OwnFacts()},
		{"allpsc-munion", dbpedia.AllPSCProgram, psc.All()},
	} {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			prog := parser.MustParse(sc.src)
			c, err := pipeline.Compile(prog, pipeline.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var live, rows, derived int
			for i := 0; i < b.N; i++ {
				s := c.NewSession()
				if err := s.Run(context.Background(), sc.facts); err != nil {
					b.Fatal(err)
				}
				live, rows, derived = s.DB().LiveFacts(), s.DB().TotalFacts(), s.Derivations()
			}
			b.ReportMetric(float64(live), "live-facts")
			b.ReportMetric(float64(rows), "stored-rows")
			b.ReportMetric(float64(derived), "derived-facts")
		})
	}
}

// BenchmarkScenario_IWarded runs one representative iWarded scenario
// (synthA) end to end, allocations reported. The pipeline sub-benchmark
// continues the historical compile-per-run trajectory; the chase
// sub-benchmark compiles once and queries per iteration with the batched
// chase. Both report the same derived-facts.
func BenchmarkScenario_IWarded(b *testing.B) {
	cfg, ok := iwarded.Scenario("synthA")
	if !ok {
		b.Fatal("synthA scenario missing")
	}
	cfg.FactsPerRel = int(1000 * benchScale() * 10)
	if cfg.FactsPerRel < 40 {
		cfg.FactsPerRel = 40
	}
	g, err := iwarded.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pipeline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b, g.Source, g.Facts, "", nil)
		}
	})
	b.Run("chase", func(b *testing.B) {
		r, err := vadalog.Compile(vadalog.MustParse(g.Source),
			&vadalog.Options{Engine: vadalog.EngineChase})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var derived int
		for i := 0; i < b.N; i++ {
			res, err := r.Query(context.Background(), g.Facts)
			if err != nil {
				b.Fatal(err)
			}
			derived = res.Derivations()
		}
		b.ReportMetric(float64(derived), "derived-facts")
	})
}

// BenchmarkStreamingLoad compares the record-manager load paths (PR 5):
// "eager" materializes the whole CSV into a fact slice before loading
// (the historical ReadAll path, still available as ReadCSV), "chunked"
// streams the @bind'ed cursor chunk by chunk into storage, and
// "chunked-qbind" additionally pushes a selection into the csv driver so
// filtered rows never surface to the engine.
func BenchmarkStreamingLoad(b *testing.B) {
	n := int(50000 * benchScale() * 10)
	if n < 2000 {
		n = 2000
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "edge.csv")
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "n%d,n%d,%d\n", i, (i+1)%n, i%100)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	rules := `
		edge(X,Y,W), W > 90 -> hot(X,Y).
		@output("hot").
	`
	plain := vadalog.MustCompile(vadalog.MustParse(rules), nil)
	bound := vadalog.MustCompile(vadalog.MustParse(
		rules+fmt.Sprintf("@bind(%q,%q,%q).", "edge", "csv", path)), nil)
	qbound := vadalog.MustCompile(vadalog.MustParse(
		rules+fmt.Sprintf("@qbind(%q,%q,%q,%q).", "edge", "csv", path, "$3 > 90")), nil)
	var derived int
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			facts, err := vadalog.ReadCSV("edge", path)
			if err != nil {
				b.Fatal(err)
			}
			res, err := plain.Query(context.Background(), facts)
			if err != nil {
				b.Fatal(err)
			}
			derived = res.Derivations()
		}
		b.ReportMetric(float64(derived), "derived-facts")
	})
	b.Run("chunked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := bound.Query(context.Background(), nil)
			if err != nil {
				b.Fatal(err)
			}
			derived = res.Derivations()
		}
		b.ReportMetric(float64(derived), "derived-facts")
	})
	b.Run("chunked-qbind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := qbound.Query(context.Background(), nil)
			if err != nil {
				b.Fatal(err)
			}
			derived = res.Derivations()
		}
		b.ReportMetric(float64(derived), "derived-facts")
	})
}

// BenchmarkFirstAnswer times a pull up to its first answer, from a fresh
// session over a compiled program, and reports admitted-at-first: the facts
// the session had admitted (EDB included, Session.Derivations) when the
// first fact was yielded — a count that repeats exactly where timings do
// not. The inputs are those of three benchmark workloads: iBench ONT-256
// query 2 at 20 facts per source, seed 1 (ont-compile), and LUBM Q9 over 14
// universities, seed 1 (lubm-q9), on the pipeline; iWarded synthC at 450
// facts per relation, seed 1, pulling wc9 on the chase (iwarded-chase). A
// pipeline pull drives only its predicate's relevance cone, so ans2 (21 of
// ONT-256's 790 rules) and q9 (3 of 26) pay for their cones, not for the
// whole program; a chase pull runs delta batches only until the one that
// admits its first wc9 fact.
func BenchmarkFirstAnswer(b *testing.B) {
	ont := ibench.ONT256()
	ont.FactsPerSource, ont.Seed = 20, 1
	g := ibench.Generate(ont)
	synthC, _ := iwarded.Scenario("synthC")
	synthC.FactsPerRel, synthC.Seed = 450, 1
	iw, err := iwarded.Generate(synthC)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name, src, pred string
		facts           []ast.Fact
		engine          vadalog.Engine
	}{
		{"ONT256-q2", g.Source + g.Queries[2], "ans2", g.Facts, vadalog.EnginePipeline},
		{"LUBM-q9", lubm.Ontology + lubm.Queries()[8], "q9", lubm.Generate(lubm.Config{Universities: 14, Seed: 1}), vadalog.EnginePipeline},
		{"iWarded-synthC-chase", iw.Source, "wc9", iw.Facts, vadalog.EngineChase},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			r := vadalog.MustCompile(vadalog.MustParse(bc.src), &vadalog.Options{Engine: bc.engine})
			admitted := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := r.NewSession()
				s.Load(bc.facts...)
				for _, err := range s.Facts(context.Background(), bc.pred) {
					if err != nil {
						b.Fatal(err)
					}
					break
				}
				admitted = s.Derivations()
				s.Close()
			}
			if admitted == 0 {
				b.Fatal("no fact admitted")
			}
			b.ReportMetric(float64(admitted), "admitted-at-first")
		})
	}
}

// BenchmarkScalingMatrix runs the chase over three admission-bound
// generator families, each wired to the million-fact range at full
// REPRO_BENCH_SCALE; runs at several scales give the size curve.
func BenchmarkScalingMatrix(b *testing.B) {
	target := int(1_000_000 * benchScale())
	if target < 2_000 {
		target = 2_000
	}
	type scenario struct {
		name  string
		src   string
		out   string
		facts []ast.Fact
	}
	var scenarios []scenario

	// graphs: scale-free ownership, companycontrol (recursive msum). Edge
	// count ≈ 2n under PaperParams, so halve the node count.
	g := graphs.ScaleFree(target/2, graphs.PaperParams(), 42)
	scenarios = append(scenarios, scenario{"graphs", graphs.ControlProgram, "control", g.OwnFacts()})

	// iwarded: synthB split across its EDB relations.
	cfg, ok := iwarded.Scenario("synthB")
	if !ok {
		b.Fatal("synthB scenario missing")
	}
	if cfg.EDBRelations == 0 {
		cfg.EDBRelations = 4
	}
	cfg.FactsPerRel = target / cfg.EDBRelations
	iw, err := iwarded.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scenarios = append(scenarios, scenario{"iwarded", iw.Source, "", iw.Facts})

	// lubm: universities sized off the measured facts-per-university.
	perUni := len(lubm.Generate(lubm.Config{Universities: 1, Seed: 3}))
	unis := target / perUni
	if unis < 1 {
		unis = 1
	}
	lf := lubm.Generate(lubm.Config{Universities: unis, Seed: 3})
	scenarios = append(scenarios, scenario{"lubm", lubm.Ontology + lubm.Queries()[8], "q9", lf})

	opts := vadalog.Options{Engine: vadalog.EngineChase}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runOnce(b, sc.src, sc.facts, sc.out, &opts)
			}
			b.ReportMetric(float64(len(sc.facts)), "input-facts")
		})
	}
}

// TestExperimentTablesSmoke regenerates two representative tables end to
// end (what cmd/vadabench prints) as a functional smoke test. At this
// scale Fig8's DbSize axis floors its two smallest points to one 400-fact
// run, measured once: 15 rows.
func TestExperimentTablesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	start := time.Now()
	tb, err := experiments.Figure5a(0.005)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("Fig5a rows: %d", len(tb.Rows))
	}
	tb, err = experiments.Figure8(0.005)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 15 {
		t.Fatalf("Fig8 rows: %d", len(tb.Rows))
	}
	t.Logf("smoke tables in %.1fs", time.Since(start).Seconds())
}
