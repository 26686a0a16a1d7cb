package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/gen/dbpedia"
	"repro/internal/gen/graphs"
	"repro/internal/gen/ibench"
	"repro/internal/gen/iwarded"
	"repro/internal/gen/lubm"
	"repro/internal/source"
	"repro/vadalog"
)

// size selects how large the generated inputs are: sizeDefault is the
// measured configuration, sizeTiny the smoke-test one.
type size int

const (
	sizeDefault size = iota
	sizeTiny
)

func (s size) pick(def, tiny int) int {
	if s == sizeTiny {
		return tiny
	}
	return def
}

// workload is one named set of inputs the benchmark runs. Its inputs are a
// function of the seed alone; the program under test only ever sees what
// build returns.
type workload struct {
	name   string
	why    string
	engine vadalog.Engine
	// clients is the number of closed-loop client goroutines issuing tasks
	// back to back; 1 everywhere but on the service-shaped workload.
	clients int
	// compileInTask makes Parse+Compile part of every timed task (what a
	// one-shot `vada run` pays).
	compileInTask bool
	// first is the predicate first_answer_s streams; empty selects the last
	// output predicate in name order, an arbitrary but fixed choice for the
	// workloads that declare no single query predicate.
	first string
	build func(seed int64, sz size, dir string) (*input, error)
	// verify compares the answers of one checked pass over every payload
	// with a reference that is not the measured engine alone (check.go).
	verify func(ctx context.Context, p *prepared, answers []*answer) error
}

// input is what one seed generates for a workload.
type input struct {
	src string
	// edbs holds one fact set per request; every workload but serve-small
	// has exactly one.
	edbs [][]vadalog.Fact
	// csvPath is the file the program's @bind reads, and refFacts the same
	// rows as facts for the reference engine (csv-stream only).
	csvPath  string
	refFacts []vadalog.Fact
}

// firstPayload is payload 0 as facts: what the reference engine and the
// kernels read. For csv-stream those are the file's rows.
func (in *input) firstPayload() []vadalog.Fact {
	if in.refFacts != nil {
		return in.refFacts
	}
	return in.edbs[0]
}

func workloads() []*workload {
	return []*workload{
		{
			name:    "iwarded-pipe",
			why:     "iWarded synthC on the pipeline: existential, null-heavy warded reasoning where termination checks, tag twins and matching do the work",
			engine:  vadalog.EnginePipeline,
			clients: 1,
			build:   buildIWarded,
			verify:  verifyOtherEngine,
		},
		{
			name:    "iwarded-chase",
			why:     "same program and EDB on the parallel chase: BFS delta batches, Freeze epochs and the dedup pre-pass, so a gain for one scheduler that costs the other shows",
			engine:  vadalog.EngineChase,
			clients: 1,
			build:   buildIWarded,
			verify:  verifyOtherEngine,
		},
		{
			name:    "control-agg",
			why:     "company control over a scale-free ownership graph: recursive msum, supersession and float conditions, no nulls, load is a large share",
			engine:  vadalog.EnginePipeline,
			clients: 1,
			first:   "control",
			build:   buildControl,
			verify:  verifyControl,
		},
		{
			name:    "lubm-q9",
			why:     "LUBM ontology plus the triangular query Q9: ground reasoning bound by index probe, unify and insert, termination on the ground fast path",
			engine:  vadalog.EnginePipeline,
			clients: 1,
			first:   "q9",
			build:   buildLUBM,
			verify:  verifyBulk,
		},
		{
			name:    "csv-stream",
			why:     "a CSV file read through @bind with trivial rules: source decode, intern and insert dominate and bound the time to the first answer",
			engine:  vadalog.EnginePipeline,
			clients: 1,
			first:   "hop",
			build:   buildCSV,
			verify:  verifyBulk,
		},
		{
			name:          "ont-compile",
			why:           "iBench ONT-256, 789 rules over tiny data, Parse+Compile inside every task: the one workload where the front end (parser, rewrite, analysis, rule compile) is a visible share",
			engine:        vadalog.EnginePipeline,
			clients:       1,
			compileInTask: true,
			build:         buildONT,
			verify:        verifyOtherEngine,
		},
		{
			name:    "serve-small",
			why:     "one shared Reasoner answering small AllPSC queries from concurrent closed-loop clients: per-request fixed cost and contention, not bulk speed",
			engine:  vadalog.EnginePipeline,
			clients: serveClients(),
			build:   buildServe,
			verify:  verifyPSC,
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func buildIWarded(seed int64, sz size, _ string) (*input, error) {
	// synthC is the only preset with all four join categories (25 mixed,
	// 20 ward, 5 no-ward, 20 harmful joins) and 40 existential rules.
	cfg, _ := iwarded.Scenario("synthC")
	cfg.FactsPerRel = sz.pick(450, 40)
	cfg.Seed = seed
	g, err := iwarded.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &input{src: g.Source, edbs: [][]vadalog.Fact{g.Facts}}, nil
}

func buildControl(seed int64, sz size, _ string) (*input, error) {
	g := graphs.ScaleFree(sz.pick(60_000, 1_500), graphs.PaperParams(), seed)
	return &input{src: graphs.ControlProgram, edbs: [][]vadalog.Fact{g.OwnFacts()}}, nil
}

func buildLUBM(seed int64, sz size, _ string) (*input, error) {
	facts := lubm.Generate(lubm.Config{Universities: sz.pick(14, 1), Seed: seed})
	return &input{src: lubm.Ontology + lubm.Queries()[8], edbs: [][]vadalog.Fact{facts}}, nil
}

// csvRules keeps reasoning trivial next to the load: one selection and one
// join back onto the loaded relation.
const csvRules = `
	edge(X,Y,W), W > 90 -> hot(X,Y).
	hot(X,Y), edge(Y,Z,_) -> hop(X,Z).
	@input("edge").
	@output("hot").
	@output("hop").
`

// csvBinding is what the program's @bind resolves to; the traced run opens
// the source with it directly.
func csvBinding(path string) source.Binding {
	return source.Binding{Pred: "edge", Driver: "csv", Target: path, Arity: 3}
}

func buildCSV(seed int64, sz size, dir string) (*input, error) {
	rows := sz.pick(90_000, 2_000)
	path := filepath.Join(dir, fmt.Sprintf("edge-%d.csv", seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	bw := bufio.NewWriter(f)
	ref := make([]vadalog.Fact, 0, rows)
	for i := 0; i < rows; i++ {
		from, to, w := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1+rng.Intn(3)), rng.Intn(100)
		fmt.Fprintf(bw, "%s,%s,%d\n", from, to, w)
		ref = append(ref, vadalog.MakeFact("edge", vadalog.Str(from), vadalog.Str(to), vadalog.Int(int64(w))))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	src := csvRules + fmt.Sprintf("@bind(\"edge\",\"csv\",%q).\n", path)
	return &input{src: src, edbs: [][]vadalog.Fact{nil}, csvPath: path, refFacts: ref}, nil
}

// ontQuery picks the iBench query compiled with the mapping rules. Query 0
// has no answer at this data size, which would leave the output check
// nothing to compare; query 2 has ten at seed 1.
const ontQuery = 2

func buildONT(seed int64, sz size, _ string) (*input, error) {
	cfg := ibench.ONT256()
	cfg.FactsPerSource = sz.pick(20, 6)
	cfg.Seed = seed
	g := ibench.Generate(cfg)
	return &input{src: g.Source + g.Queries[ontQuery], edbs: [][]vadalog.Fact{g.Facts}}, nil
}

// serveEDBs is how many distinct request payloads serve-small cycles
// through, so that no two consecutive requests of a client are the same.
const serveEDBs = 64

func buildServe(seed int64, sz size, _ string) (*input, error) {
	in := &input{src: dbpedia.AllPSCProgram}
	for i := 0; i < sz.pick(serveEDBs, 8); i++ {
		d := dbpedia.Generate(dbpedia.Config{Companies: 60, Persons: 240,
			KeyPersonRate: 1.2, ControlRate: 0.35, Seed: seed + int64(i)})
		in.edbs = append(in.edbs, d.All())
	}
	return in, nil
}

// outputPreds lists the predicates a task materialises: the declared
// @output predicates, or every IDB predicate when none is declared.
func outputPreds(prog *vadalog.Program) []string {
	set := prog.Outputs
	if len(set) == 0 {
		set = prog.IDBPreds()
	}
	preds := make([]string, 0, len(set))
	for p := range set {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	return preds
}
