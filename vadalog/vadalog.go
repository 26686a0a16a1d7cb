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
// There are three ways in, all on the compiled Reasoner: Query runs one
// request to completion (safe to call concurrently on a shared Reasoner,
// honors context cancellation mid-fixpoint), Stream consumes derived facts
// lazily as a range-over-func iterator, and NewSession opens an
// incremental multi-step session (load, run, load more, resume).
//
// The default engine is the streaming pipeline of the paper's Sec. 4; the
// reference chase engine and the baseline termination policies of the
// evaluation are selectable through Options. Which engine runs is decided
// once, in Compile: everything after it drives the same session surface.
package vadalog

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/storage"
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
// configuration: pipeline engine, full termination strategy. The fields
// choose what is computed and from where (engine, policy, budget, checks,
// drivers, retries) and what is reported. There are no ablation switches:
// harmful-join rewriting, dynamic indexing and the join planner always run.
type Options struct {
	Engine Engine
	Policy Policy
	// MaxDerivations caps admitted facts (0 = 10M). With baseline
	// policies this is the safeguard against genuine non-termination.
	MaxDerivations int
	// RequireWarded fails session creation when the program is not warded.
	RequireWarded bool
	// Lint collects the structured diagnostics of the static analysis
	// layer (wardedness, stratification, arity, dead rules, type
	// conflicts — see Reasoner.Diagnostics) at compile time. Lint is
	// read-only: engine output is byte-identical with it on or off.
	Lint bool
	// Strict implies Lint and additionally fails Compile when any
	// diagnostic of Warning severity or above is reported, not just the
	// errors the engines reject on their own.
	Strict bool
	// PhaseTiming makes the engines accumulate the wall-time split
	// between matching and admission, reported by Session.PhaseStats (the
	// chase engine always collects it; the flag enables the pipeline's
	// per-firing clocks).
	PhaseTiming bool
	// Drivers overlays the process-global record-manager registry for
	// programs compiled with these options: @bind/@qbind driver names
	// resolve through Drivers first, then through the registry
	// (RegisterDriver / source.Register). Use the RegisterDriver method
	// to populate it.
	Drivers map[string]Driver
	// Retry tunes how sessions retry transient source I/O failures while
	// reading @bind'ed inputs (see RetryPolicy and IsTransient). nil
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

// ErrArity is returned by the drive (Run, RunContext, Facts) when a loaded
// fact or a bound source's row has another number of values than its
// predicate's arity: the compiled program's, or, for a predicate the
// program does not mention, that of the first fact loaded for it. The row
// is not stored and the facts after it are not loaded; like
// ErrInconsistent, it is terminal for the session: every later drive
// refuses the row again.
var ErrArity = errors.New("vadalog: fact does not have its predicate's arity")

// ErrUnsoundLoad is returned by the drive (Run, RunContext, Facts) after a
// Session.Load that was refused: facts loaded into a session that has
// already been driven, of a predicate from which a dependency path leads
// to a negated body atom. A negation settled by the earlier drive would
// have to be retracted, which the engines do not do, so the refused facts
// are not staged; the session is left as it was and the next drive runs
// normally. Loads of predicates that reach no negation resume the session.
var ErrUnsoundLoad = errors.New("vadalog: load after a drive reaches a negated predicate")

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

// engine is the scheduling surface a Session drives — the one pull
// interface of the paper's Sec. 4, with the chase of Algorithm 2 behind it
// as the reference implementation. *pipeline.Session satisfies it as it
// stands and *chase.Engine through chaseEngine; everything below DB is
// what both promote from their embedded *admit.Core. Compile picks the
// implementation; nothing after it asks which one runs. An engine is
// created holding its session's input as a pipeline.Feeder (Session.step),
// and Next pulls from it: chunk by chunk on the pipeline, all at once on
// the chase.
type engine interface {
	LoadProgramFacts() error
	LoadChunk(ctx context.Context, facts []ast.Fact) error
	LoadRows(ctx context.Context, pred string, rows [][]term.Value) error
	Run(ctx context.Context, facts []ast.Fact) error
	Next(ctx context.Context, pred string, n int) (ast.Fact, bool, error)
	Quiesced() bool
	Explain() string
	PhaseStats() (match, prepass, admit time.Duration)

	DB() *storage.Database
	ReachesNegation(pred string) bool
	Strategy() core.Policy
	Derivations() int
	SetBudget(n int)
	Output(pred string) []ast.Fact
}

// chaseEngine fits *chase.Engine to the engine seam; the engine's own
// LoadChunk and Run signatures are the benchmark harness's and stay. feed
// is the session's input (see Session.step).
type chaseEngine struct {
	*chase.Engine
	feed pipeline.Feeder
}

// LoadChunk admits the chunk, then reports any pending cancellation (the
// pipeline's contract: a chunk already pulled from a cursor is never
// dropped).
func (c chaseEngine) LoadChunk(ctx context.Context, facts []ast.Fact) error {
	if err := c.Engine.LoadChunk(facts); err != nil {
		return err
	}
	return ctx.Err()
}

func (c chaseEngine) LoadRows(ctx context.Context, pred string, rows [][]term.Value) error {
	if err := c.Engine.LoadRows(pred, rows); err != nil {
		return err
	}
	return ctx.Err()
}

func (c chaseEngine) Run(ctx context.Context, facts []ast.Fact) error {
	_, err := c.Engine.Run(ctx, facts)
	return err
}

// Next returns pred's n-th live fact. The chase has no lazy path: it takes
// all the input there is, and whenever deltas are waiting — a first pull,
// facts loaded since the last one — it runs to its fixpoint before
// answering.
func (c chaseEngine) Next(ctx context.Context, pred string, n int) (ast.Fact, bool, error) {
	if err := c.feed.Drain(ctx); err != nil {
		return ast.Fact{}, false, err
	}
	if !c.Quiesced() {
		if err := c.Run(ctx, nil); err != nil {
			return ast.Fact{}, false, err
		}
	}
	rel := c.DB().Lookup(pred)
	if rel == nil || rel.Live() <= n {
		return ast.Fact{}, false, nil
	}
	return rel.LiveAt(n).Fact, true, nil
}

// Session is one reasoning session over a program: per-run state (facts,
// database, strategy) layered over a compiled Reasoner. Sessions are for
// use by a single goroutine; to serve concurrent requests share the
// Reasoner and give each request its own Session (or just use Query).
type Session struct {
	opts    Options
	prog    *ast.Program
	eng     engine
	pending []ast.Fact
	ran     bool
	refused bool // a Load was refused since the last drive (ErrUnsoundLoad)

	// Input state (see step): the compile-time-resolved bindings shared
	// with the Reasoner, the index of the input binding currently being
	// read, its open cursor (kept across a cancelled or failed step so the
	// session resumes where it stopped), and the done flags.
	binds      []boundIO
	bindIdx    int
	cur        RecordCursor
	chunk      [][]term.Value // pulled but not yet admitted (engine load failed)
	loaded     bool           // every @bind'ed input has been drained (exactly once)
	progLoaded bool           // inline program facts admitted ahead of bound inputs
}

// newPolicy returns the admission core's policy factory for p; nil selects
// the full strategy of Algorithm 1.
func newPolicy(p Policy) func(*analysis.Result) core.Policy {
	switch p {
	case PolicyNoSummary:
		return func(res *analysis.Result) core.Policy {
			s := core.NewStrategy(res)
			s.DisableSummary = true
			return s
		}
	case PolicyTrivialIso:
		return func(res *analysis.Result) core.Policy { return baseline.NewTrivialIso(res) }
	case PolicyRestricted:
		return func(res *analysis.Result) core.Policy { return baseline.NewRestrictedHom(res) }
	case PolicySkolem:
		return func(res *analysis.Result) core.Policy { return baseline.NewSkolemChase(res) }
	default:
		return nil
	}
}

// Load stages facts for the next drive of the session (Run, or a pull of
// Facts): loading into a session that already ran resumes it, since new
// facts can enable new derivations. Labelled nulls among the facts (e.g.
// "_:nK" cells materialized by ReadCSV) are imported into the session's
// null factory: a label the session has not reached is kept and never
// minted afterwards; one it has already minted — Load after a run — names
// a different null, so the loaded one is renamed, the same way every time
// the label is seen. Equal labels are one null across everything a session
// loads, bound sources included.
//
// After a drive, a load with a fact of a predicate that reaches a negated
// predicate is refused whole: none of its facts is staged, and the next
// drive returns ErrUnsoundLoad.
func (s *Session) Load(facts ...Fact) {
	if s.ran && slices.ContainsFunc(facts, func(f Fact) bool { return s.eng.ReachesNegation(f.Pred) }) {
		s.refused = true
		return
	}
	s.pending = append(s.pending, facts...)
	nulls := s.eng.DB().Nulls
	staged := s.pending[len(s.pending)-len(facts):]
	for i := range staged {
		if args, renamed := importRow(nulls, staged[i].Args); renamed {
			staged[i].Args = args
		}
	}
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
	if err := s.takeRefused(); err != nil {
		return err
	}
	if err := s.feed(ctx); err != nil {
		return err
	}
	if err := s.eng.Run(ctx, nil); err != nil {
		return s.wrapPartial(mapErr(err))
	}
	return s.wrapPartial(s.writeBoundOutputs(ctx))
}

// takeRefused returns ErrUnsoundLoad, once, when a load was refused since
// the last drive.
func (s *Session) takeRefused() error {
	if !s.refused {
		return nil
	}
	s.refused = false
	return ErrUnsoundLoad
}

// feed steps the session's input to exhaustion (see step): the batch
// drives load everything, then drain. A bound striking mid-load surfaces
// the way it does from a drain — a deadline while a bound input is loading
// is a resumable *PartialResult.
func (s *Session) feed(ctx context.Context) error {
	return s.wrapPartial(mapErr(pipeline.Feeder(s.step).Drain(ctx)))
}

// mapErr lifts the admission core's sentinels to this package's.
func mapErr(err error) error {
	switch {
	case errors.Is(err, admit.ErrInconsistent):
		return fmt.Errorf("%w: %v", ErrInconsistent, err)
	case errors.Is(err, admit.ErrBudget):
		return fmt.Errorf("%w: %v", ErrBudget, err)
	case errors.Is(err, admit.ErrArity):
		return fmt.Errorf("%w: %v", ErrArity, err)
	default:
		return err
	}
}

// Output returns the facts of pred with @post directives applied, against
// the session's database as it stands — after an interrupted run, the
// partial answer — in the canonical order of Result.Output.
//
// Contract: before the session has been run there are no facts to return.
// Use Result, which fails with ErrNotRun instead of silently returning
// nothing, when "not run yet" must be distinguishable from "empty answer".
func (s *Session) Output(pred string) []Fact { return s.eng.Output(pred) }

// Explain renders the session's access plan annotated, per rule and per
// delta-pinned body atom, with the join order the cost-based planner
// chooses and the estimates that drove it, against the session's
// statistics at call time: before Run the estimates reflect an empty
// database, after Run the orders the fixpoint converged on.
func (s *Session) Explain() string { return s.eng.Explain() }

// Result returns the session's reasoning result — a view of the session's
// database, so it also reflects runs made after the call — or ErrNotRun
// when the session has not been run yet.
func (s *Session) Result() (*Result, error) {
	if !s.ran {
		return nil, ErrNotRun
	}
	return &Result{prog: s.prog, eng: s.eng}, nil
}

// Facts pulls the stored facts of pred lazily as a range-over-func
// iterator. On the pipeline engine both ends are lazy (the volcano next()
// of the paper): facts are derived on demand, and input is read on demand
// too — a pull that comes back dry loads one more chunk (program facts,
// then each @bind'ed input's next cursor chunk in declaration order, then
// the staged facts) and pulls again, so the first fact is yielded after
// the first chunk that can derive it, not after the last row. A program
// with a negated body atom reads all its input, and completes each negated
// predicate in stratum order, before the first pull. The
// chase engine reads everything and runs to its fixpoint on the first
// pull, then iterates. Facts loaded between pulls or between two ranges
// are picked up on either engine; breaking out early leaves the rest of
// the input unread, its cursor open for the next drive (or Close).
//
// The sequence yields (fact, nil) pairs until exhaustion; a reasoning or
// source failure or context cancellation yields one final (zero fact, err)
// pair and stops — a *PartialResult when a resource bound struck, as from
// RunContext — and the session stays resumable exactly as after a failed
// RunContext. The order of the stream is the engine's admission order,
// which depends on how the input was chunked; the set of facts, and
// Output's canonical order, do not. @post directives describe the
// materialized answer and apply to Output, not to the stream.
func (s *Session) Facts(ctx context.Context, pred string) iter.Seq2[Fact, error] {
	return func(yield func(Fact, error) bool) {
		if err := s.takeRefused(); err != nil {
			yield(Fact{}, err)
			return
		}
		for n := 0; ; n++ {
			f, ok, err := s.eng.Next(ctx, pred, n)
			if err != nil {
				yield(Fact{}, s.wrapPartial(mapErr(err)))
				return
			}
			if !ok || !yield(f, nil) {
				return
			}
		}
	}
}

// Derivations reports the number of admitted facts (EDB included).
//
// Contract: before the session has been run it reports the facts admitted
// so far (0 when nothing is loaded); see Result / ErrNotRun to tell "not
// run" apart from "derived nothing".
func (s *Session) Derivations() int { return s.eng.Derivations() }

// StrategyStats returns the termination-strategy counters when the full
// strategy is in use.
func (s *Session) StrategyStats() (core.Stats, bool) { return strategyStats(s.eng) }

func strategyStats(eng engine) (core.Stats, bool) {
	if st, ok := eng.Strategy().(*core.Strategy); ok {
		return st.Stats(), true
	}
	return core.Stats{}, false
}

// PhaseStats reports the cumulative wall-time split of the session's
// evaluation phases: matching and serial admission. No engine has a dedup
// pre-pass, so prepass is always zero. The chase engine always collects the
// split; the pipeline engine only under Options.PhaseTiming (all-zero
// otherwise; fused firings count as match time).
func (s *Session) PhaseStats() (match, prepass, admit time.Duration) { return s.eng.PhaseStats() }

// Check analyzes prog and returns a wardedness report without running it.
func Check(prog *Program) *Report {
	res := analysis.Analyze(prog)
	g := analysis.Condense(prog, nil)
	err := g.Err()
	rep := &Report{
		Warded:     res.Warded,
		Stratified: err == nil,
		Recursive:  slices.Contains(g.Recursive, true),
		Violations: res.Violations,
		Stats:      analysis.ComputeStats(res, g),
	}
	if err != nil {
		rep.Violations = append(rep.Violations, err.Error())
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
