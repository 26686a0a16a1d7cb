package experiments

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/gen/dbpedia"
	"repro/internal/gen/doctors"
	"repro/internal/gen/graphs"
	"repro/internal/gen/ibench"
	"repro/internal/gen/iwarded"
	"repro/internal/gen/lubm"
	"repro/internal/parser"
	"repro/vadalog"
)

// Figure6 reproduces the scenario-statistics table: it generates every
// iWarded scenario and tabulates the measured rule statistics (they must
// match the configured ones; the iwarded tests assert equality).
func Figure6() (*Table, error) {
	t := &Table{ID: "Fig6", Title: "iWarded scenario statistics (generated vs paper)"}
	for _, cfg := range iwarded.Scenarios() {
		cfg.FactsPerRel = 10
		g, err := iwarded.Generate(cfg)
		if err != nil {
			return nil, err
		}
		prog, err := parser.Parse(g.Source)
		if err != nil {
			return nil, err
		}
		st := analysis.ComputeStats(analysis.Analyze(prog), analysis.Condense(prog, nil))
		t.Rows = append(t.Rows, Row{
			Scenario: cfg.Name, System: "iwarded",
			Param: fmt.Sprintf("L=%d J=%d", st.LinearRules, st.JoinRules),
			Note: fmt.Sprintf("Lrec=%d Jrec=%d ∃=%d mixed=%d ward=%d noward=%d harmful=%d",
				st.RecursiveLinear, st.RecursiveJoin, st.ExistentialRules,
				st.MixedJoins, st.HarmlessWithWard, st.HarmlessNoWard, st.HarmfulJoins),
		})
	}
	return t, nil
}

// Figure5a measures the reasoning time of the eight iWarded scenarios
// (all 100 rules activated by draining every output).
func Figure5a(scale float64) (*Table, error) {
	t := &Table{ID: "Fig5a", Title: "iWarded scenarios synthA-synthH, reasoning time"}
	for _, cfg := range iwarded.Scenarios() {
		cfg.FactsPerRel = scaled(1000, scale, 40)
		if err := addIWarded(t, cfg.Name, fmt.Sprint(cfg.FactsPerRel), cfg); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// addIWarded generates the iWarded scenario cfg and appends its row,
// draining every output.
func addIWarded(t *Table, scenario, param string, cfg iwarded.Config) error {
	g, err := iwarded.Generate(cfg)
	if err != nil {
		return err
	}
	return addRow(t, scenario, "vadalog", param, g.Source, g.Facts, "", nil)
}

// Figure5b measures the iBench scenarios STB-128 and ONT-256 against the
// chase-system baselines, averaging over each scenario's query mix.
func Figure5b(scale float64) (*Table, error) {
	t := &Table{ID: "Fig5b", Title: "iBench STB-128 / ONT-256 vs chase-based baselines (avg over queries)"}
	for _, cfg := range []ibench.Config{ibench.STB128(), ibench.ONT256()} {
		// The value domain scales with the instance; below ~50 facts per
		// source the joins become artificially dense, so floor there.
		cfg.FactsPerSource = scaled(cfg.FactsPerSource, scale, 50)
		g := ibench.Generate(cfg)
		// Each query is a separate end-to-end session (as in the paper);
		// at reduced scale a representative subset keeps the suite fast.
		queries := g.Queries
		if scale < 0.2 && len(queries) > 3 {
			queries = queries[:3]
		}
		param := fmt.Sprintf("%d/%d queries", len(queries), len(g.Queries))
		if err := addRows(t, cfg.Name, param, chaseSystems(4_000_000), mix(g.Source, queries, "ans", 0), g.Facts); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// personsAxis is the paper's Fig. 5(c) x-axis: 1K..1.5M persons.
var personsAxis = []int{1_000, 10_000, 100_000, 1_000_000, 1_500_000}

// Figure5c measures PSC and AllPSC over DBpedia-scale data while scaling
// the person pool, including the bulk (recursive-SQL-like) comparator on
// the plain-Datalog PSC task.
func Figure5c(scale float64) (*Table, error) {
	t := &Table{ID: "Fig5c", Title: "DBpedia PSC / AllPSC scaling persons"}
	companies := scaled(67_000, scale, 500)
	for _, persons := range scalePoints(personsAxis, scale, 100) {
		cfg := dbpedia.Config{Companies: companies, Persons: persons,
			KeyPersonRate: 1.2, ControlRate: 0.35, Seed: 7}
		data := dbpedia.Generate(cfg)
		param := fmt.Sprint(persons)
		if err := addRow(t, "PSC", "vadalog", param, dbpedia.PSCProgram, data.All(), "psc", nil); err != nil {
			return nil, err
		}
		if err := addRow(t, "AllPSC", "vadalog", param, dbpedia.AllPSCProgram, data.All(), "pscSet", nil); err != nil {
			return nil, err
		}
		// Relational comparator (recursive-CTE-style bulk evaluation).
		r, err := runBulk(dbpedia.PSCProgram, data.All(), "psc")
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Scenario: "PSC", System: "bulk-sql", Param: param,
			Seconds: r.seconds.Seconds(), Output: r.output, Note: r.note})
	}
	return t, nil
}

func runBulk(src string, facts []ast.Fact, outPred string) (runResult, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return runResult{}, err
	}
	be, err := baseline.NewBulkEngine(prog)
	if err != nil {
		return runResult{}, err
	}
	start := time.Now()
	if err := be.Run(facts); err != nil {
		return runResult{}, err
	}
	return runResult{seconds: time.Since(start), output: be.Count(outPred)}, nil
}

// companiesAxis is Fig. 5(d)'s x-axis: 1K..67K companies.
var companiesAxis = []int{1_000, 10_000, 25_000, 50_000, 67_000}

// Figure5d measures SpecStrongLinks (N=1, one company) and AllStrongLinks
// (N=3, all pairs) while scaling companies.
func Figure5d(scale float64) (*Table, error) {
	t := &Table{ID: "Fig5d", Title: "DBpedia SpecStrongLinks / AllStrongLinks scaling companies"}
	for _, companies := range scalePoints(companiesAxis, scale, 200) {
		cfg := dbpedia.Config{Companies: companies, Persons: companies * 3,
			KeyPersonRate: 1.0, ControlRate: 0.35, Seed: 13}
		data := dbpedia.Generate(cfg)
		param := fmt.Sprint(companies)
		if err := addRow(t, "SpecStrongLinks", "vadalog", param,
			dbpedia.SpecStrongLinksProgram(0, 1), data.All(), "strongLink", nil); err != nil {
			return nil, err
		}
		if err := addRow(t, "AllStrongLinks", "vadalog", param,
			dbpedia.StrongLinksProgram(3), data.All(), "strongLink", nil); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Figure5e measures company control on "real-like" ownership graphs
// (AllReal: all pairs; QueryReal: 10 specific source companies averaged).
func Figure5e(scale float64) (*Table, error) {
	return controlFigure("Fig5e", "Company control on real-like ownership graphs",
		[]int{10, 100, 1_000, 10_000, 50_000}, scale,
		func(n int, seed int64) *graphs.Graph { return graphs.RealLike(n, seed) },
		"AllReal", "QueryReal")
}

// Figure5f measures company control on scale-free graphs with the paper's
// learned parameters, up to 1M companies.
func Figure5f(scale float64) (*Table, error) {
	return controlFigure("Fig5f", "Company control on scale-free graphs (α=0.71 β=0.09 γ=0.2)",
		[]int{10, 100, 1_000, 10_000, 100_000, 1_000_000}, scale,
		func(n int, seed int64) *graphs.Graph { return graphs.ScaleFree(n, graphs.PaperParams(), seed) },
		"AllRand", "QueryRand")
}

func controlFigure(id, title string, axis []int, scale float64,
	gen func(int, int64) *graphs.Graph, allName, queryName string) (*Table, error) {
	t := &Table{ID: id, Title: title}
	for _, n := range scalePoints(axis, scale, 10) {
		g := gen(n, 42)
		facts := g.OwnFacts()
		param := fmt.Sprint(n)
		if err := addRow(t, allName, "vadalog", param, graphs.ControlProgram, facts, "control", nil); err != nil {
			return nil, err
		}
		// Query variant: 10 separate source companies, averaged.
		qs := make([]query, 10)
		for q := range qs {
			qs[q] = query{graphs.QueryControlProgram((q * 7) % g.N), "control"}
		}
		if err := addRows(t, queryName, param, []system{{"vadalog", nil}}, qs, facts); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// doctorsAxis is Fig. 5(g,h)'s x-axis: 10K..1M source facts.
var doctorsAxis = []int{10_000, 100_000, 500_000, 1_000_000}

// Figure5g measures the Doctors scenario (plain schema mapping) against
// the baselines, averaging the 9-query mix.
func Figure5g(scale float64) (*Table, error) {
	return doctorsFigure("Fig5g", "Doctors (schema mapping, avg over 9 queries)", doctors.Program, scale)
}

// Figure5h is Doctors with target functional dependencies (EGDs).
func Figure5h(scale float64) (*Table, error) {
	return doctorsFigure("Fig5h", "DoctorsFD (schema mapping + EGDs, avg over 9 queries)", doctors.FDProgram, scale)
}

func doctorsFigure(id, title, mapping string, scale float64) (*Table, error) {
	t := &Table{ID: id, Title: title}
	for _, n := range scalePoints(doctorsAxis, scale, 500) {
		qs := mix(mapping, doctors.Queries(), "q", 0)
		if err := addRows(t, id, fmt.Sprint(n), chaseSystems(6_000_000), qs, doctors.Generate(n, 5)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// lubmAxis approximates the paper's 90K..120M facts via university counts.
var lubmAxis = []int{1, 3, 10, 25}

// Figure5i measures LUBM (ontology + 14 queries) against the baselines.
func Figure5i(scale float64) (*Table, error) {
	t := &Table{ID: "Fig5i", Title: "LUBM (ontological reasoning, avg over 14 queries)"}
	for _, unis := range scalePoints(lubmAxis, scale, 1) {
		facts := lubm.Generate(lubm.Config{Universities: unis, Seed: 3})
		param := fmt.Sprintf("%d unis (%d facts)", unis, len(facts))
		if err := addRows(t, "LUBM", param, chaseSystems(8_000_000), mix(lubm.Ontology, lubm.Queries(), "q", 1), facts); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Figure7 compares the full termination strategy (guide structures)
// against the trivial exhaustive isomorphism check of Sec. 6.6 on the
// AllPSC scenario, scaling persons (including the paper's extra synthetic
// 2M point).
func Figure7(scale float64) (*Table, error) {
	t := &Table{ID: "Fig7", Title: "AllPSC: full strategy vs trivial isomorphism check"}
	companies := scaled(67_000, scale, 500)
	axis := append(append([]int{}, personsAxis...), 2_000_000)
	for _, persons := range scalePoints(axis, scale, 100) {
		data := dbpedia.Generate(dbpedia.Config{Companies: companies, Persons: persons,
			KeyPersonRate: 1.2, ControlRate: 0.35, Seed: 7})
		systems := []system{{"full", nil}, {"trivial-iso", &vadalog.Options{Policy: vadalog.PolicyTrivialIso}}}
		if err := addRows(t, "AllPSC", fmt.Sprint(persons), systems,
			[]query{{dbpedia.AllPSCProgram, "pscSet"}}, data.All()); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Figure8 reproduces the four scaling studies over SynthB: database size,
// rule count (independent blocks), body atoms, and arity.
func Figure8(scale float64) (*Table, error) {
	t := &Table{ID: "Fig8", Title: "Scaling SynthB: db size / #rules / #atoms / arity"}
	base, _ := iwarded.Scenario("synthB")
	if base.EDBRelations == 0 {
		base.EDBRelations = 4
	}

	// (a) DbSize: 10k, 50k, 100k, 500k source facts.
	for _, facts := range scalePoints([]int{10_000, 50_000, 100_000, 500_000}, scale, 400) {
		cfg := base
		cfg.FactsPerRel = facts / cfg.EDBRelations
		if err := addIWarded(t, "DbSize", fmt.Sprint(facts), cfg); err != nil {
			return nil, err
		}
	}
	small := base
	small.FactsPerRel = scaled(250, scale, 20)
	// (b) Rule count: 100..1000 rules as independent blocks.
	for _, blocks := range []int{1, 2, 5, 10} {
		cfg := small
		cfg.Blocks = blocks
		if err := addIWarded(t, "Rule#", fmt.Sprint(blocks*100), cfg); err != nil {
			return nil, err
		}
	}
	// (c) Body atoms: 2, 4, 8, 16 atoms in join bodies.
	for _, atoms := range []int{2, 4, 8, 16} {
		cfg := small
		cfg.ExtraBodyAtoms = atoms - 2
		if err := addIWarded(t, "Atom#", fmt.Sprint(atoms), cfg); err != nil {
			return nil, err
		}
	}
	// (d) Arity: 3, 6, 12, 24.
	for _, arity := range []int{3, 6, 12, 24} {
		cfg := small
		cfg.Arity = arity
		if err := addIWarded(t, "Arity", fmt.Sprint(arity), cfg); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Ablations measures the design choices README discusses that the public
// API can select: horizontal pruning on/off (PolicyNoSummary) and pipeline
// vs chase. The planner's ablation is BenchmarkAblation_SkewJoin.
func Ablations(scale float64) (*Table, error) {
	t := &Table{ID: "Ablations", Title: "Design ablations (pruning, engine)"}
	companies := scaled(20_000, scale, 300)
	facts := dbpedia.Generate(dbpedia.Config{Companies: companies, Persons: companies * 4,
		KeyPersonRate: 1.2, ControlRate: 0.35, Seed: 7}).All()
	param := fmt.Sprint(companies)
	if err := addRows(t, "StrongLinks", param,
		[]system{{"summary-on", nil}, {"summary-off", &vadalog.Options{Policy: vadalog.PolicyNoSummary}}},
		[]query{{dbpedia.StrongLinksProgram(2), "strongLink"}}, facts); err != nil {
		return nil, err
	}
	if err := addRows(t, "PSC", param,
		[]system{{"pipeline", &vadalog.Options{Engine: vadalog.EnginePipeline}}, {"chase", &vadalog.Options{Engine: vadalog.EngineChase}}},
		[]query{{dbpedia.PSCProgram, "psc"}}, facts); err != nil {
		return nil, err
	}
	return t, nil
}

// Figure is one reproduced table: its ID and the function measuring it
// at a scale (a fraction of the paper's instance sizes).
type Figure struct {
	ID  string
	Run func(scale float64) (*Table, error)
}

// Figures lists every table of the evaluation, in the order vadabench
// prints them. Each Run returns a table whose ID is the entry's.
var Figures = []Figure{
	{"Fig6", func(float64) (*Table, error) { return Figure6() }},
	{"Fig5a", Figure5a},
	{"Fig5b", Figure5b},
	{"Fig5c", Figure5c},
	{"Fig5d", Figure5d},
	{"Fig5e", Figure5e},
	{"Fig5f", Figure5f},
	{"Fig5g", Figure5g},
	{"Fig5h", Figure5h},
	{"Fig5i", Figure5i},
	{"Fig7", Figure7},
	{"Fig8", Figure8},
	{"Ablations", Ablations},
}

// All runs the entire suite at the given scale.
func All(scale float64) ([]*Table, error) {
	var out []*Table
	for _, f := range Figures {
		tb, err := f.Run(scale)
		if err != nil {
			return out, err
		}
		out = append(out, tb)
	}
	return out, nil
}
