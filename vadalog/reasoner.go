package vadalog

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"strings"

	"repro/internal/admit"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// ErrNotRun is returned by Session.Result when the session has not been
// run yet: there is no reasoning result to report.
var ErrNotRun = errors.New("vadalog: session has not been run")

// Reasoner is an immutable compiled reasoning program: wardedness
// analysis, harmful-join rewriting, rule compilation and plan
// construction are all performed exactly once, in Compile. A Reasoner is
// safe for concurrent use by any number of goroutines — a typical service
// compiles its programs at startup and serves every request through
// Query, NewSession or Stream, each of which spins up cheap per-request
// runtime state (database, interner, termination strategy, buffers).
type Reasoner struct {
	opts Options
	prog *ast.Program
	// compiled is what both engines share of the compiled program;
	// newEngine derives fresh per-run engine state over it, and returns it
	// with its admission core — the one place the choice of engine lives on.
	compiled  *admit.Compiled
	newEngine func() (engine, *admit.Core)
	binds     []boundIO // @bind/@qbind annotations resolved against the driver registry
	diags     []Diagnostic
}

// Compile compiles prog into a shareable Reasoner. opts == nil selects
// the defaults (pipeline engine, full termination strategy). The Reasoner
// shares prog's rules rather than copying them, so prog must not be
// modified after Compile.
func Compile(prog *Program, opts *Options) (*Reasoner, error) {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	r := &Reasoner{opts: o, prog: prog}
	if o.Lint || o.Strict {
		// Lint is read-only: it observes the program as written, before
		// rewriting, so diagnostics point at the author's source.
		r.diags = Lint(prog, "")
		if o.Strict {
			var bad []string
			for _, d := range r.diags {
				if d.Severity >= SeverityWarning {
					bad = append(bad, d.String())
				}
			}
			if len(bad) > 0 {
				return nil, fmt.Errorf("vadalog: strict lint failed:\n%s", strings.Join(bad, "\n"))
			}
		}
	}
	// Bindings are part of the compiled artifact: unknown drivers,
	// malformed @qbind queries and arity-mismatched @mapping projections
	// are compile errors, not run errors.
	binds, err := resolveBindings(prog, o.Drivers)
	if err != nil {
		return nil, err
	}
	r.binds = binds
	cfg := admit.Config{
		MaxDerivations: o.MaxDerivations,
		NewPolicy:      newPolicy(o.Policy),
		PhaseTiming:    o.PhaseTiming,
	}
	switch o.Engine {
	case EnginePipeline:
		plc, err := pipeline.Compile(prog, cfg)
		if err != nil {
			return nil, err
		}
		r.compiled = plc.Compiled
		r.newEngine = func() (engine, *admit.Core) {
			s := plc.NewSession()
			return s, s.Core
		}
	case EngineChase:
		chc, err := chase.Compile(prog, cfg)
		if err != nil {
			return nil, err
		}
		r.compiled = chc.Compiled
		r.newEngine = func() (engine, *admit.Core) {
			e := chc.NewEngine()
			return e, e.Core
		}
	default:
		return nil, fmt.Errorf("vadalog: unknown engine %d", o.Engine)
	}
	return r, nil
}

// MustCompile compiles prog with Compile and panics on error.
func MustCompile(prog *Program, opts *Options) *Reasoner {
	r, err := Compile(prog, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// NewSession spins up fresh per-request runtime state over the shared
// compiled program. Sessions are cheap (no analysis, rewriting or rule
// compilation happens); each is for use by a single goroutine.
func (r *Reasoner) NewSession() *Session {
	s := &Session{opts: r.opts, prog: r.prog, binds: r.binds}
	s.eng, s.core = r.newEngine()
	s.core.SetFeeder(s.step)
	return s
}

// Query runs the compiled program over facts in a fresh single-use
// session and returns the materialized result. It is safe to call
// concurrently on a shared Reasoner — with one filesystem caveat: a
// program with @bind'ed *output* predicates writes its bound CSV targets
// on every query, so concurrent queries of such a program race on those
// files. Cancelling ctx aborts the reasoning fixpoint promptly and
// returns ctx's error.
func (r *Reasoner) Query(ctx context.Context, facts []Fact) (*Result, error) {
	s := r.NewSession()
	s.Load(facts...)
	if err := s.RunContext(ctx); err != nil {
		return nil, err
	}
	return s.Result()
}

// Stream runs the compiled program over facts in a fresh single-use
// session and yields the facts of pred lazily as they are derived (the
// volcano next() of the paper, surfaced as a Go 1.23+ range-over-func
// iterator). On the pipeline engine the input is pulled as well: @bind'ed
// sources and facts are read one chunk at a time, only when the pull of
// pred comes back dry, so the first fact does not wait for the last row and
// an early break leaves the rest unread (see Session.Facts for the order
// and the exceptions), and the pull drives only pred's relevance cone: the
// rules pred depends on, plus every constraint and EGD with theirs. The
// chase engine reads all the input, then runs its delta batches only until
// the one that admits the first fact of pred — unless the program has an
// EGD or an aggregate rewriting its rows in place, when it runs to its
// fixpoint first. The sequence yields (fact, nil) pairs until exhaustion;
// a reasoning or source failure or context cancellation yields one final
// (zero fact, err) pair. It is safe to call concurrently on a shared
// Reasoner.
//
// On a consistent knowledge base every yielded fact is in the final answer
// (Query's Output of pred), with the exceptions below and @post directives
// aside; a stream broken off early may not see an inconsistency that a
// stream to exhaustion ends in (ErrInconsistent). See Session.Facts.
//
// Monotonic aggregates (msum, mprod, mmin, mmax, mcount, munion) stream
// improving values only: each fact yielded for an aggregate group carries
// the group's best value at pull time, never a superseded one, and
// successive yields for a group only ever improve. Intermediates are
// transient — the engines replace them in place as the aggregate improves
// — so a yielded value may be superseded by the time the fixpoint
// completes; only the final database (Query, Session.Output) is limited
// to exactly one fact per group, the aggregate's limit.
func (r *Reasoner) Stream(ctx context.Context, facts []Fact, pred string) iter.Seq2[Fact, error] {
	return func(yield func(Fact, error) bool) {
		s := r.NewSession()
		// The session is internal and unreachable once iteration ends, so
		// whatever cut it short — an early break with input still unread,
		// cancellation mid-load — its open input cursor must be released
		// here or it leaks.
		defer s.Close()
		s.Load(facts...)
		for f, err := range s.Facts(ctx, pred) {
			if !yield(f, err) || err != nil {
				return
			}
		}
	}
}

// Plan renders the reasoning access plan compiled into the Reasoner: the
// compiled rules both engines run, so the plan is the same whichever engine
// was chosen. The error is always nil.
func (r *Reasoner) Plan() (string, error) { return r.compiled.Plan(), nil }

// Explain renders the access plan annotated with the join orders and
// estimates the cost-based planner chooses. A Reasoner has no run-time
// statistics, so the estimates reflect an empty database (every relation
// size 0 — the orders the first fixpoint round starts from); for
// estimates grounded in a run's real statistics, run a Session and call
// its Explain.
func (r *Reasoner) Explain() string { return r.NewSession().Explain() }

// Program returns the program the Reasoner was compiled from.
func (r *Reasoner) Program() *Program { return r.prog }

// Diagnostics returns the static-analysis findings collected at compile
// time, sorted by source position. It is nil unless the Reasoner was
// compiled with Options.Lint (or Options.Strict) set.
func (r *Reasoner) Diagnostics() []Diagnostic { return r.diags }

// Result is the outcome of a reasoning run, read through the admission core
// of the engine that produced it (it keeps that database reachable). A
// Result only exists for sessions that actually ran, which makes the "read
// before run" mistake unrepresentable (cf. ErrNotRun).
type Result struct {
	prog *ast.Program
	core *admit.Core
}

// Output returns the facts of pred with @post directives applied, in
// canonical order: by predicate, then column by column by the arguments'
// rendered form (so 1 < 10 < 2, and bare strings order by byte) — the order
// of Fact.Key(), identical on both engines. @post orderBy stable-sorts
// that order on its column: facts tying on the column stay in canonical
// order, so orderBy + limit keeps the same facts whichever engine admitted
// them first.
func (res *Result) Output(pred string) []Fact { return res.core.Output(pred) }

// All returns the outputs of every @output predicate (every IDB
// predicate when none are declared), keyed by predicate.
func (res *Result) All() map[string][]Fact {
	preds := res.prog.Outputs
	if len(preds) == 0 {
		preds = res.prog.IDBPreds()
	}
	out := make(map[string][]Fact, len(preds))
	for pred := range preds {
		out[pred] = res.core.Output(pred)
	}
	return out
}

// Derivations reports the number of admitted facts (EDB included).
func (res *Result) Derivations() int { return res.core.Derivations() }

// StrategyStats returns the termination-strategy counters when the full
// strategy is in use.
func (res *Result) StrategyStats() (core.Stats, bool) { return strategyStats(res.core) }
