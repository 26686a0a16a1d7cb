// Package vadalog is the public API of this Vadalog system reproduction:
// a Datalog±-based reasoner for knowledge graphs implementing Warded
// Datalog± with the termination strategy of Bellomarini, Sallinger and
// Gottlob (VLDB 2018).
//
// A reasoning task is a program (rules + annotations) compiled once into
// an immutable, goroutine-shareable Reasoner and then executed over
// changing databases of facts:
//
//	prog, err := vadalog.Parse(`
//	    own(X,Y,W), W > 0.5 -> control(X,Y).
//	    control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
//	    @output("control").
//	`)
//	r, err := vadalog.Compile(prog, nil) // analysis+rewrite+plans, once
//	res, err := r.Query(ctx, []vadalog.Fact{
//	    vadalog.MakeFact("own", vadalog.Str("a"), vadalog.Str("b"), vadalog.Flt(0.6)),
//	})
//	for _, f := range res.Output("control") { ... }
//
// Query calls on a shared Reasoner are safe to issue concurrently and
// honor context cancellation mid-fixpoint. Derived facts can also be
// consumed lazily with Reasoner.Stream (a range-over-func iterator), and
// incremental multi-step workloads use Reasoner.NewSession. NewSession
// (package level) and Reason are the original compile-per-run entry
// points, kept as thin shims over Compile.
//
// The default engine is the streaming pipeline of the paper's Sec. 4; the
// reference chase engine and the baseline termination policies of the
// evaluation are selectable through Options.
package vadalog

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/term"
)

// Fact is a ground atom over constants and labelled nulls.
type Fact = ast.Fact

// Value is a typed Vadalog runtime value.
type Value = term.Value

// Program is a parsed Vadalog program.
type Program = ast.Program

// Convenience constructors for values and facts.
var (
	Str  = term.String
	Int  = term.Int
	Flt  = term.Float
	Bool = term.Bool
)

// MakeFact builds a fact.
func MakeFact(pred string, args ...Value) Fact { return ast.NewFact(pred, args...) }

// Engine selects the execution engine.
type Engine int

// Engines.
const (
	// EnginePipeline is the streaming pull pipeline (paper Sec. 4); the
	// default.
	EnginePipeline Engine = iota
	// EngineChase is the reference breadth-first chase (Algorithm 2).
	EngineChase
)

// Policy selects the termination policy.
type Policy int

// Termination policies.
const (
	// PolicyFull is Algorithm 1: warded forest + lifted linear forest.
	PolicyFull Policy = iota
	// PolicyNoSummary is Algorithm 1 with horizontal pruning disabled
	// (ablation).
	PolicyNoSummary
	// PolicyTrivialIso is the exhaustive isomorphism check of Sec. 6.6.
	PolicyTrivialIso
	// PolicyRestricted is the restricted-chase homomorphism check
	// (Graal/PDQ/LLunatic-like).
	PolicyRestricted
	// PolicySkolem is the unrestricted Skolem chase (DLV/RDFox-like).
	PolicySkolem
)

// Options tunes a session. The zero value (or nil) gives the production
// configuration: pipeline engine, full termination strategy, default
// rewriting.
type Options struct {
	Engine Engine
	Policy Policy
	// MaxDerivations caps admitted facts (0 = 10M). With baseline
	// policies this is the safeguard against genuine non-termination.
	MaxDerivations int
	// BufferCapacity bounds the pipeline buffer cache (bytes; 0 = off).
	BufferCapacity int64
	// RequireWarded fails session creation when the program is not warded.
	RequireWarded bool
	// DisableRewriting skips the logic optimizer (harmful joins are then
	// evaluated directly over Skolem nulls; termination guarantees weaken).
	DisableRewriting bool
	// DisableDynamicIndex turns off the slot machine join's dynamic
	// indexing (ablation benchmarks).
	DisableDynamicIndex bool
	// DisablePlanner turns off the cost-based join planner (ablation
	// benchmarks): rules run the static schedules compiled into them and
	// common-subexpression body sharing is off. Admitted facts are
	// byte-identical either way; only evaluation order and speed change.
	DisablePlanner bool
	// Lint collects the structured diagnostics of the static analysis
	// layer (wardedness, stratification, arity, dead rules, type
	// conflicts — see Reasoner.Diagnostics) at compile time. Lint is
	// read-only: engine output is byte-identical with it on or off.
	Lint bool
	// Strict implies Lint and additionally fails Compile when any
	// diagnostic of Warning severity or above is reported, not just the
	// errors the engines reject on their own.
	Strict bool
	// Parallelism sets how many worker goroutines the chase engine uses to
	// match each delta batch against a frozen storage epoch; 0 (the
	// default) selects runtime.GOMAXPROCS(0) and 1 evaluates batches on
	// the calling goroutine. Candidate facts are always admitted serially
	// in a canonical order, so every setting yields a byte-identical final
	// database. The streaming pipeline engine is a single-goroutine pull
	// machine and ignores this option.
	Parallelism int
	// Shards sets how many duplicate-table shards each relation keeps —
	// the partition count of the parallel admission dedup pre-pass. For
	// the chase engine 0 selects min(GOMAXPROCS, 8); for the pipeline
	// engine 0 or 1 keeps the classic fully-serial admission. Rounded up
	// to a power of two. The final database is byte-identical for every
	// setting (sharding only parallelizes duplicate detection; admission
	// itself stays serial in canonical order).
	Shards int
	// PhaseTiming makes the engines accumulate the wall-time split
	// between matching, the dedup pre-pass and admission, reported by
	// Session.PhaseStats (the chase engine always collects it; the flag
	// enables the pipeline's per-firing clocks).
	PhaseTiming bool
	// Drivers overlays the process-global record-manager registry for
	// programs compiled with these options: @bind/@qbind driver names
	// resolve through Drivers first, then through the registry
	// (RegisterDriver / source.Register). Use the RegisterDriver method
	// to populate it.
	Drivers map[string]Driver
	// Retry tunes how sessions retry transient source I/O failures while
	// staging @bind'ed inputs (see RetryPolicy and IsTransient). nil
	// selects the default policy (4 attempts, 5ms base backoff doubling
	// to a 500ms cap); MaxAttempts: 1 disables retrying.
	Retry *RetryPolicy
}

// RegisterDriver makes d available to programs compiled with these
// options under name, shadowing any registry driver of the same name.
// It returns o for chaining.
func (o *Options) RegisterDriver(name string, d Driver) *Options {
	if o.Drivers == nil {
		o.Drivers = make(map[string]Driver)
	}
	o.Drivers[name] = d
	return o
}

// ErrInconsistent is returned when a negative constraint fires or an EGD
// equates distinct constants.
var ErrInconsistent = errors.New("vadalog: knowledge base is inconsistent")

// ErrBudget is returned when the derivation budget is exhausted.
var ErrBudget = errors.New("vadalog: derivation budget exceeded")

// Parse parses a Vadalog program in the surface syntax of this repository
// (see README).
func Parse(src string) (*Program, error) { return parser.Parse(src) }

// ParseFile reads and parses a Vadalog program from path; syntax errors
// are labelled file:line:col.
func ParseFile(path string) (*Program, error) { return parser.ParseFile(path) }

// MustParse parses src and panics on error.
func MustParse(src string) *Program { return parser.MustParse(src) }

// Diagnostic is one structured static-analysis finding: a stable code
// (W001 wardedness … T003 aggregate misuse, see package lint), a
// severity, a source position and a message.
type Diagnostic = lint.Diagnostic

// Severity ranks a Diagnostic.
type Severity = lint.Severity

// Diagnostic severities.
const (
	SeverityInfo    = lint.Info
	SeverityWarning = lint.Warning
	SeverityError   = lint.Error
)

// Lint runs every static check over prog and returns the diagnostics
// sorted by source position. file, which may be empty, labels the
// positions. Lint never mutates prog.
func Lint(prog *Program, file string) []Diagnostic {
	return lint.Check(prog, lint.Options{File: file})
}

// Session is one reasoning session over a program: per-run state (facts,
// database, strategy) layered over a compiled Reasoner. Sessions are for
// use by a single goroutine; to serve concurrent requests share the
// Reasoner and give each request its own Session (or just use Query).
type Session struct {
	opts    Options
	prog    *ast.Program
	pl      *pipeline.Session
	ch      *chase.Engine
	chRes   *chase.Result
	pending []ast.Fact
	ran     bool

	// Streaming-load state: the compile-time-resolved bindings shared
	// with the Reasoner, the index of the input binding currently being
	// drained, its open cursor (kept across a cancelled load so the
	// session resumes where it stopped), and the done flags.
	binds      []boundIO
	bindIdx    int
	cur        RecordCursor
	chunk      [][]term.Value // pulled but not yet admitted (engine load failed)
	loaded     bool           // every @bind'ed input has been drained (exactly once)
	progLoaded bool           // inline program facts admitted ahead of bound inputs
}

// NewSession compiles prog and opens a session over it in one step (the
// original compile-per-run entry point). opts == nil selects the
// defaults. To amortize compilation across runs, use Compile once and
// Reasoner.NewSession per run.
func NewSession(prog *Program, opts *Options) (*Session, error) {
	r, err := Compile(prog, opts)
	if err != nil {
		return nil, err
	}
	return r.NewSession(), nil
}

func policyFactory(p Policy) (func(*analysis.Result) core.Policy, bool) {
	switch p {
	case PolicyNoSummary:
		return nil, true
	case PolicyTrivialIso:
		return func(res *analysis.Result) core.Policy { return baseline.NewTrivialIso(res) }, false
	case PolicyRestricted:
		return func(res *analysis.Result) core.Policy { return baseline.NewRestrictedHom(res) }, false
	case PolicySkolem:
		return func(res *analysis.Result) core.Policy { return baseline.NewSkolemChase(res) }, false
	default:
		return nil, false
	}
}

// Load stages facts for the run. Labelled nulls among the facts (e.g.
// "_:nK" cells materialized by ReadCSV) reserve their ids in the
// session's null factory, so nulls the run mints never collide with
// loaded ones.
func (s *Session) Load(facts ...Fact) {
	for _, f := range facts {
		for _, v := range f.Args {
			if v.IsNull() {
				s.nulls().Reserve(v.NullID())
			}
		}
	}
	if s.pl != nil && s.ran {
		s.pl.Load(facts...) // incremental load into a running pipeline
		return
	}
	s.pending = append(s.pending, facts...)
}

// Run executes the reasoning task to completion: it streams any
// @bind'ed inputs and the staged facts into the engine, drains it,
// enforces constraints and EGDs, and writes @bind'ed outputs. It is
// equivalent to RunContext with a background context.
func (s *Session) Run() error { return s.RunContext(context.Background()) }

// RunContext is Run with cancellation: cancelling ctx aborts the
// streaming load between chunks or the reasoning fixpoint between rule
// firings and returns ctx's error; the session stays consistent and a
// later call with a live context resumes (an interrupted load continues
// at its cursor, losing and re-reading nothing). Bound inputs and staged
// facts are loaded exactly once per session; further calls only resume
// the engine (a no-op unless facts were loaded in between).
//
// A run cut short by a resource bound — the derivation budget or ctx's
// deadline — returns a *PartialResult: the facts derived so far plus the
// resumable session (see PartialResult). Transient source I/O failures
// are retried per Options.Retry before surfacing; when one does surface
// it still satisfies IsTransient and the session stays resumable at the
// failed cursor. A crash recovered inside an engine surfaces as a
// *PanicError with the engine rolled back to a consistent, resumable
// boundary.
func (s *Session) RunContext(ctx context.Context) error {
	if err := s.stage(ctx); err != nil {
		// mapErr: a budget can already strike while loading bound inputs,
		// and it must surface as the same typed PartialResult as one
		// striking mid-fixpoint.
		return s.wrapPartial(mapErr(err))
	}
	facts := s.pending
	s.pending = nil
	s.ran = true
	switch {
	case s.pl != nil:
		if err := s.pl.Run(ctx, facts); err != nil {
			// Restore the staged facts: a resumed run re-feeds them, and
			// since loading skips duplicates nothing is admitted twice.
			s.pending = facts
			return s.wrapPartial(mapErr(err))
		}
	default:
		res, err := s.ch.Run(ctx, facts)
		if err != nil {
			s.pending = facts
			return s.wrapPartial(mapErr(err))
		}
		s.chRes = res
	}
	return s.wrapPartial(s.writeBoundOutputs(ctx))
}

// mapErr lifts the engines' sentinels (one pair, shared by both through
// the admission core) to this package's.
func mapErr(err error) error {
	switch {
	case errors.Is(err, pipeline.ErrInconsistent):
		return fmt.Errorf("%w: %v", ErrInconsistent, err)
	case errors.Is(err, pipeline.ErrBudget):
		return fmt.Errorf("%w: %v", ErrBudget, err)
	default:
		return err
	}
}

// Output returns the facts of pred with @post directives applied.
//
// Contract: before the session has been run, Output returns nil (there is
// no result yet). Use Result, which fails with ErrNotRun instead of
// silently returning nothing, when "not run yet" must be distinguishable
// from "empty answer".
func (s *Session) Output(pred string) []Fact {
	switch {
	case s.pl != nil:
		return s.pl.Output(pred)
	case s.chRes != nil:
		return s.chRes.Output(pred)
	default:
		return nil
	}
}

// Explain renders the session's access plan annotated, per rule and per
// delta-pinned body atom, with the join order the cost-based planner
// chooses and the estimates that drove it, against the session's
// statistics at call time: before Run the estimates reflect an empty
// database, after Run the orders the fixpoint converged on. With
// Options.DisablePlanner the plain plan is rendered.
func (s *Session) Explain() string {
	if s.pl != nil {
		return s.pl.Explain()
	}
	return s.ch.Explain()
}

// Result returns the session's materialized reasoning result, or ErrNotRun
// when the session has not been run yet.
func (s *Session) Result() (*Result, error) {
	res := &Result{prog: s.prog}
	switch {
	case s.pl != nil && s.ran:
		pl := s.pl
		res.output = pl.Output
		res.derivations = pl.Derivations()
		res.strategy = pl.Strategy()
	case s.chRes != nil:
		chRes := s.chRes
		res.output = chRes.Output
		res.derivations = chRes.Derivations
		res.strategy = chRes.Strategy
	default:
		return nil, ErrNotRun
	}
	return res, nil
}

// Facts pulls the facts of pred lazily as a range-over-func iterator: the
// pipeline engine derives them on demand (volcano next()); the chase
// engine materializes on the first pull and then iterates (facts loaded
// after that point require a new session). The sequence yields (fact,
// nil) pairs until exhaustion; a reasoning failure or context
// cancellation yields one final (zero fact, err) pair and stops.
func (s *Session) Facts(ctx context.Context, pred string) iter.Seq2[Fact, error] {
	return func(yield func(Fact, error) bool) {
		if s.pl != nil {
			if !s.ran {
				if err := s.stage(ctx); err != nil {
					yield(Fact{}, err)
					return
				}
				s.pl.Load(s.pending...)
				s.pending = nil
				s.ran = true
			}
			for n := 0; ; n++ {
				f, ok, err := s.pl.Next(ctx, pred, n)
				if err != nil {
					yield(Fact{}, mapErr(err))
					return
				}
				if !ok {
					return
				}
				if !yield(f, nil) {
					return
				}
			}
		}
		if s.chRes == nil {
			if err := s.RunContext(ctx); err != nil {
				yield(Fact{}, err)
				return
			}
		}
		for _, f := range s.chRes.Output(pred) {
			if !yield(f, nil) {
				return
			}
		}
	}
}

// Stream pulls facts of pred lazily through the pipeline (volcano next());
// it falls back to materialized iteration on the chase engine. The
// returned function yields (fact, true) until exhaustion.
//
// Stream is the original closure-based streaming API; new code should
// range over Session.Facts or Reasoner.Stream instead.
func (s *Session) Stream(pred string) func() (Fact, bool, error) {
	if s.pl != nil {
		if !s.ran {
			if err := s.stage(context.Background()); err != nil {
				return func() (Fact, bool, error) { return Fact{}, false, err }
			}
			s.pl.Load(s.pending...)
			s.pending = nil
			s.ran = true
		}
		n := 0
		return func() (Fact, bool, error) {
			f, ok, err := s.pl.Next(context.Background(), pred, n)
			if ok {
				n++
			}
			return f, ok, mapNilErr(err)
		}
	}
	var facts []Fact
	i := 0
	loaded := false
	return func() (Fact, bool, error) {
		if !loaded {
			if s.chRes == nil {
				if err := s.Run(); err != nil {
					return Fact{}, false, err
				}
			}
			facts = s.chRes.Output(pred)
			loaded = true
		}
		if i >= len(facts) {
			return Fact{}, false, nil
		}
		f := facts[i]
		i++
		return f, true, nil
	}
}

func mapNilErr(err error) error {
	if err == nil {
		return nil
	}
	return mapErr(err)
}

// Derivations reports the number of admitted facts (EDB included).
//
// Contract: before the session has been run it reports the facts admitted
// so far (0 when nothing is loaded); see Result / ErrNotRun to tell "not
// run" apart from "derived nothing".
func (s *Session) Derivations() int {
	switch {
	case s.pl != nil:
		return s.pl.Derivations()
	case s.chRes != nil:
		return s.chRes.Derivations
	case s.ch != nil:
		// No materialized result yet — a run interrupted by a bound or
		// fault: report the engine's live count, which is what a
		// PartialResult's Derivations must reflect.
		return s.ch.Derivations()
	default:
		return 0
	}
}

// StrategyStats returns the termination-strategy counters when the full
// strategy is in use.
func (s *Session) StrategyStats() (core.Stats, bool) {
	var pol core.Policy
	switch {
	case s.pl != nil:
		pol = s.pl.Strategy()
	case s.chRes != nil:
		pol = s.chRes.Strategy
	}
	if st, ok := pol.(*core.Strategy); ok {
		return st.Stats(), true
	}
	return core.Stats{}, false
}

// PhaseStats reports the cumulative wall-time split of the session's
// evaluation phases: matching, the sharded dedup pre-pass and serial
// admission. The chase engine always collects it; the pipeline engine
// only under Options.PhaseTiming (all-zero otherwise, with fused firings
// counted as match time when enabled).
func (s *Session) PhaseStats() (match, prepass, admit time.Duration) {
	if s.pl != nil {
		return s.pl.PhaseStats()
	}
	return s.ch.PhaseStats()
}

// Shards reports the resolved duplicate-table shard count the session's
// engine runs with (Options.Shards after defaulting and power-of-two
// rounding).
func (s *Session) Shards() int {
	if s.pl != nil {
		return s.pl.Shards()
	}
	return s.ch.Shards()
}

// Reason is the one-shot entry point: compile prog, run it over facts and
// collect the outputs of the @output predicates (all IDB predicates when
// none are declared). It is a shim over Compile + Query.
func Reason(prog *Program, facts []Fact, opts *Options) (map[string][]Fact, error) {
	r, err := Compile(prog, opts)
	if err != nil {
		return nil, err
	}
	res, err := r.Query(context.Background(), facts)
	if err != nil {
		return nil, err
	}
	return res.All(), nil
}

// PlanString compiles prog with the default options and renders its
// reasoning access plan (the logic compiler's filter pipeline, paper
// Sec. 4) without running it.
func PlanString(prog *Program) (string, error) {
	c, err := pipeline.Compile(prog, pipeline.Options{})
	if err != nil {
		return "", err
	}
	return c.Plan(), nil
}

// Check analyzes prog and returns a wardedness report without running it.
func Check(prog *Program) *Report {
	res := analysis.Analyze(prog)
	st := analysis.ComputeStats(prog)
	rep := &Report{Warded: res.Warded, Violations: res.Violations, Stats: st}
	g := analysis.BuildDependencyGraph(prog)
	rep.Recursive = len(g.RecursivePreds()) > 0
	if _, err := analysis.Stratify(prog); err != nil {
		rep.Stratified = false
		rep.Violations = append(rep.Violations, err.Error())
	} else {
		rep.Stratified = true
	}
	return rep
}

// Report is the static analysis summary of a program.
type Report struct {
	Warded     bool
	Stratified bool
	Recursive  bool
	Violations []string
	Stats      analysis.Stats
}

// String renders the report for CLI display.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "warded: %v, stratified: %v, recursive: %v\n", r.Warded, r.Stratified, r.Recursive)
	fmt.Fprintf(&sb, "rules: %d linear, %d join (%d mixed, %d ward, %d plain, %d harmful), %d with existentials\n",
		r.Stats.LinearRules, r.Stats.JoinRules, r.Stats.MixedJoins, r.Stats.HarmlessWithWard,
		r.Stats.HarmlessNoWard, r.Stats.HarmfulJoins, r.Stats.ExistentialRules)
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "violation: %s\n", v)
	}
	return sb.String()
}
