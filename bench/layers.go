package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/source"
	"repro/internal/storage"
	"repro/vadalog"
)

// The traced run drives the layers one public call at a time, through
// internal/pipeline or internal/chase directly instead of Reasoner.Query,
// with a span around each call and the engines' own phase clocks on.

// frontEnd holds one pass over the compile-time layers.
type frontEnd struct {
	parse, lint                   time.Duration
	pipelineCompile, chaseCompile time.Duration
	rewrite, analyze, compileRule time.Duration
	newSession, newEngine         time.Duration
	rulesIn, rulesOut             int

	plc   *pipeline.Compiled
	chc   *chase.Compiled
	res   *analysis.Result
	rules []*eval.CompiledRule
}

// traceFrontEnd parses and compiles the program for both engines, then
// replays the stages of Compile standalone (rewrite, analysis, per-rule
// compile) so that each has a span of its own.
func traceFrontEnd(tr *tracer, src string, task int) (*frontEnd, error) {
	fe := &frontEnd{}
	root := tr.begin("front_end", 0, task)
	defer tr.end(root)

	id := tr.begin("parse", root, task)
	prog, err := parser.Parse(src)
	fe.parse = tr.end(id)
	if err != nil {
		return nil, err
	}
	fe.rulesIn = len(prog.Rules)

	id = tr.begin("lint", root, task)
	vadalog.Lint(prog, "")
	fe.lint = tr.end(id)

	id = tr.begin("pipeline.compile", root, task)
	fe.plc, err = pipeline.Compile(prog, pipeline.Options{PhaseTiming: true})
	fe.pipelineCompile = tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("chase.compile", root, task)
	fe.chc, err = chase.Compile(prog, chase.Options{})
	fe.chaseCompile = tr.end(id)
	if err != nil {
		return nil, err
	}

	replay := tr.begin("compile.replay", root, task)
	defer tr.end(replay)
	id = tr.begin("rewrite", replay, task)
	rw, err := rewrite.Apply(prog, rewrite.DefaultOptions())
	fe.rewrite = tr.end(id)
	if err != nil {
		return nil, err
	}
	fe.rulesOut = len(rw.Program.Rules)
	id = tr.begin("analyze", replay, task)
	fe.res = analysis.Analyze(rw.Program)
	_, err = analysis.Stratify(rw.Program)
	fe.analyze = tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("eval.compile", replay, task)
	for i, r := range rw.Program.Rules {
		cr, err := eval.Compile(r, fe.res.Rules[i])
		if err != nil {
			tr.end(id)
			return nil, err
		}
		fe.rules = append(fe.rules, cr)
	}
	fe.compileRule = tr.end(id)

	id = tr.begin("pipeline.new_session", root, task)
	fe.plc.NewSession()
	fe.newSession = tr.end(id)
	id = tr.begin("chase.new_engine", root, task)
	fe.chc.NewEngine()
	fe.newEngine = tr.end(id)
	return fe, nil
}

// driven is one traced task: the span durations and the engine state the
// getters and the kernels read afterwards.
type driven struct {
	task, parse, compile            time.Duration
	newSession, load, run, output   time.Duration
	scan                            time.Duration // inside load
	match, prepass, admit           time.Duration // the engine's clocks, inside run
	chunks, rows                    int
	derived                         int
	derives, replans, sharedFirings int
	outputs                         map[string][]ast.Fact

	db    *storage.Database
	strat core.Policy
	meter *core.Meter // chase only
}

// engine is what the traced task needs from either engine once it has
// been created; both adapters are a few lines over the public methods.
type engine interface {
	loadProgramFacts()
	load(ctx context.Context, facts []ast.Fact) error
	run(ctx context.Context) error
	output(pred string) []ast.Fact
	finish(d *driven)
}

type pipelineRun struct{ s *pipeline.Session }

func (e pipelineRun) loadProgramFacts() { e.s.LoadProgramFacts() }
func (e pipelineRun) load(ctx context.Context, facts []ast.Fact) error {
	return e.s.LoadChunk(ctx, facts)
}
func (e pipelineRun) run(ctx context.Context) error { return e.s.Drain(ctx) }
func (e pipelineRun) output(pred string) []ast.Fact { return e.s.Output(pred) }
func (e pipelineRun) finish(d *driven) {
	d.match, d.prepass, d.admit = e.s.PhaseStats()
	d.derived = e.s.Derivations()
	if pl := e.s.Planner(); pl != nil {
		d.derives, d.replans = pl.Derives(), pl.Replans()
	}
	d.db, d.strat = e.s.DB(), e.s.Strategy()
}

type chaseRun struct {
	e   *chase.Engine
	res *chase.Result
}

func (e *chaseRun) loadProgramFacts() { e.e.LoadProgramFacts() }
func (e *chaseRun) load(_ context.Context, facts []ast.Fact) error {
	return e.e.LoadChunk(facts)
}
func (e *chaseRun) run(ctx context.Context) (err error) {
	e.res, err = e.e.Run(ctx, nil)
	return err
}
func (e *chaseRun) output(pred string) []ast.Fact { return e.res.Output(pred) }
func (e *chaseRun) finish(d *driven) {
	d.match, d.prepass, d.admit = e.e.PhaseStats()
	d.derived = e.e.Derivations()
	d.derives, d.replans, d.sharedFirings = e.e.PlannerStats()
	d.db, d.strat, d.meter = e.e.DB(), e.res.Strategy, e.e.Meter()
}

// tracedTask runs payload i of p step by step under tr.
func tracedTask(ctx context.Context, tr *tracer, p *prepared, fe *frontEnd, task, i int) (*driven, error) {
	d := &driven{outputs: map[string][]ast.Fact{}}
	root := tr.begin("task", 0, task)
	defer func() { d.task = tr.end(root) }()

	plc, chc := fe.plc, fe.chc
	if p.w.compileInTask {
		id := tr.begin("parse", root, task)
		prog, err := parser.Parse(p.in.src)
		d.parse = tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("compile", root, task)
		plc, err = pipeline.Compile(prog, pipeline.Options{PhaseTiming: true})
		d.compile = tr.end(id)
		if err != nil {
			return nil, err
		}
	}

	id := tr.begin("new_session", root, task)
	var e engine
	if p.w.engine == vadalog.EngineChase {
		e = &chaseRun{e: chc.NewEngine()}
	} else {
		e = pipelineRun{s: plc.NewSession()}
	}
	d.newSession = tr.end(id)

	id = tr.begin("load", root, task)
	err := tracedLoad(ctx, tr, p, e, d, id, task, i)
	d.load = tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("run", root, task)
	err = e.run(ctx)
	d.run = tr.end(id)
	if err != nil {
		return nil, err
	}
	e.finish(d)
	tr.synthetic("match", id, task, 0, d.match)
	tr.synthetic("prepass", id, task, d.match, d.prepass)
	tr.synthetic("admit", id, task, d.match+d.prepass, d.admit)

	id = tr.begin("output", root, task)
	for _, pred := range p.outs {
		d.outputs[pred] = e.output(pred)
	}
	d.output = tr.end(id)
	return d, nil
}

// tracedLoad stages the task's inputs the way vadalog.Session does:
// program facts, then the bound source chunk by chunk, then the payload.
func tracedLoad(ctx context.Context, tr *tracer, p *prepared, e engine, d *driven, parent, task, i int) error {
	e.loadProgramFacts()
	if p.in.csvPath != "" {
		bind := csvBinding(p.in.csvPath)
		id := tr.begin("source.open", parent, task)
		cur, err := source.Open(ctx, source.CSV{}, bind)
		d.scan += tr.end(id)
		if err != nil {
			return err
		}
		defer cur.Close()
		for {
			id := tr.begin("source.next", parent, task)
			chunk, err := cur.Next(ctx)
			d.scan += tr.end(id)
			if err != nil {
				return err
			}
			if len(chunk) == 0 {
				break
			}
			d.chunks++
			d.rows += len(chunk)
			facts := make([]ast.Fact, len(chunk))
			for k, row := range chunk {
				facts[k] = ast.Fact{Pred: bind.Pred, Args: row}
			}
			if err := e.load(ctx, facts); err != nil {
				return err
			}
		}
	}
	return e.load(ctx, p.in.edbs[i%len(p.in.edbs)])
}

// phaseShares renders the split of a traced task into its top-level steps,
// as shares of the task span, with sched_self = run − match − prepass −
// admit. They sum to 1 up to the time between spans.
func phaseShares(d *driven) string {
	t := d.task.Seconds()
	self := d.run - d.match - d.prepass - d.admit
	pct := func(x time.Duration) float64 { return 100 * x.Seconds() / t }
	front := ""
	if d.parse+d.compile > 0 {
		front = fmt.Sprintf("parse %.1f%%  compile %.1f%%  ", pct(d.parse), pct(d.compile))
	}
	return fmt.Sprintf("%snew_session %.1f%%  load %.1f%% (scan %.1f%%)  match %.1f%%  prepass %.1f%%  admit %.1f%%  sched_self %.1f%%  output %.1f%%  [sum %.1f%%]",
		front, pct(d.newSession), pct(d.load), pct(d.scan), pct(d.match), pct(d.prepass), pct(d.admit), pct(self), pct(d.output),
		pct(d.parse+d.compile+d.newSession+d.load+d.run+d.output))
}
