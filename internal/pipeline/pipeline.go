// Package pipeline implements the Vadalog system's production engine: the
// pipe-and-filters architecture of paper Sec. 4. Rules compile into filter
// nodes connected by pipes (an edge from filter a to filter b when a's
// head unifies with an atom in b's body); reasoning is a pull (volcano)
// data stream driven by the sinks. Filters poll their predecessors
// round-robin; a filter already on the pull stack (a runtime invocation
// cycle) answers dry, and when every pull comes back dry one sweep over all
// filters tells a cycle that can still be fed from a real miss; each filter
// wraps fact production in a termination-strategy wrapper running
// Algorithm 1.
//
// A filter reads each body atom through a cursor of its own, and a firing
// pins one delta and joins it only against rows the filter has already
// consumed at the other atoms — semi-naive evaluation, with the cursors as
// the bound — so each combination of body facts is matched exactly once.
// Aggregate rules and rules over an aggregate head (or its tag twin) are the
// exception: supersession makes their emissions order-dependent, so they
// join against whole relations (Compiled.bounded).
//
// A program that negates takes all its input before the first pull and then
// settles its negated predicates in stratum order (Session.settle): a
// filter that negates fires only once the relations it negates are
// complete.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/admit"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/planner"
	"repro/internal/storage"
	"repro/internal/term"
)

// siteLoad guards the streaming-load seam: it fires at the head of
// LoadChunk, before the chunk is admitted, so an injected failure drops
// nothing the engine has accepted.
var siteLoad = fault.NewSite("pipeline.load")

// ErrInconsistent and ErrBudget are the admission core's sentinels under
// this package's name: errors.Is holds against either.
var (
	ErrInconsistent = admit.ErrInconsistent
	ErrBudget       = admit.ErrBudget
)

// Options configures a pipeline session: the admission core's one option
// set (admit.Config). PhaseTiming switches on the per-firing clocks behind
// Session.PhaseStats; fused firings (inline and short rules) count as match
// time.
type Options = admit.Config

// Feeder loads one more chunk of a run's input into the session — the
// sources of the paper's pull stream, as one function: the program's facts,
// a bound record manager's next cursor chunk, the next staged facts — and
// reports whether anything was left to load. A step that fails has lost
// nothing: calling again resumes at the same row. Whoever owns the input
// (package vadalog's Session) supplies it; Next calls it when a pull comes
// back dry.
type Feeder func(ctx context.Context) (more bool, err error)

// Drain steps f until the input is exhausted or a step fails. A nil Feeder
// has no input.
func (f Feeder) Drain(ctx context.Context) error {
	for f != nil {
		more, err := f(ctx)
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// Session is the per-run state of one reasoning task over a shared
// Compiled artifact: database, interner, termination strategy, buffers,
// bindings and cursors. Sessions are cheap to create (Compiled.NewSession)
// and are for use by a single goroutine; share the Compiled, not the
// Session.
type Session struct {
	// Core owns the database, termination policy, meter and aggregate
	// state and does everything that happens to a match once found; the
	// session's part of admission is admitted, the hook it hands the core.
	*admit.Core
	c  *Compiled
	mt *eval.Matcher

	filters []ruleFilter
	hubs    map[string]*hub

	// feed is where Next gets more input from when a pull comes back dry;
	// nil for a session loaded through Load/LoadRows/Run alone.
	feed Feeder

	// ctx is the context of the drive call currently on the stack; the
	// recursive pull machinery checks it between rule firings. ctxDone
	// latches an observed cancellation until the next drive call;
	// pollTick strides the ctx.Err polls (see cancelled).
	ctx      context.Context
	ctxDone  bool
	pollTick uint32

	failure  error
	quiesced bool

	// settled counts the leading predicates of Compiled.settle pulled to
	// exhaustion; a filter with waits > settled is dry.
	settled int

	// log and permBuf buffer one firing's candidate bindings so they are
	// admitted in canonical order regardless of the join order (the core's
	// planner, or the static schedule) that enumerated them.
	log     eval.BindingLog
	permBuf []int32

	// matches counts complete matches handed to admission (Emit or Replay).
	matches int

	// timing/clock accumulate the phase wall-time split when
	// Options.PhaseTiming is set.
	timing bool
	clock  phaseClock
}

// phaseClock is the cumulative wall-time split of evaluation phases:
// match enumeration (fused firings included) and serial admission.
type phaseClock struct{ match, admit time.Duration }

// now returns the current time when phase timing is on (zero otherwise, so
// untimed sessions never touch the clock).
func (s *Session) now() time.Time {
	if !s.timing {
		return time.Time{}
	}
	return time.Now()
}

// lap accrues the time since t0 into *d when phase timing is on.
func (s *Session) lap(d *time.Duration, t0 time.Time) {
	if s.timing {
		*d += time.Since(t0)
	}
}

// PhaseStats reports cumulative wall time spent matching (fused firings
// included) and in serial admission, in the chase engine's three-phase
// shape: the pipeline admits serially, so its pre-pass share is always
// zero. All zero unless the session was created with Options.PhaseTiming.
func (s *Session) PhaseStats() (match, prepass, admit time.Duration) {
	return s.clock.match, 0, s.clock.admit
}

// hub is the meeting point of all producers of one predicate: the
// predicate's buffered relation plus the filters feeding it.
type hub struct {
	pred      string
	rel       *storage.Relation
	producers []*ruleFilter
	rr        int
}

// ruleFilter is one rule's filter node. cr is shared read-only with the
// Compiled artifact; everything else is per-session.
type ruleFilter struct {
	idx int
	cr  *eval.CompiledRule
	// binding is made on the filter's first firing (see bind); bounded is
	// the rule's Compiled.bounded.
	binding *eval.Binding
	bounded bool

	// rels[i] is body atom i's relation, resolved once at session start;
	// cursors[i] counts its facts already consumed as deltas.
	rels    []*storage.Relation
	cursors []int
	rr      int
	active  bool // on the current pull stack (runtime cycle detection)
	// waits is the filter's Compiled.waits: it is dry until Session.settled
	// reaches it.
	waits int

	// sized[pos] is the last plan whose presize hints were applied for
	// firings pinned at pos; hints re-apply only when re-planning yields
	// a new plan, not on every firing.
	sized []*planner.Plan
}

// New compiles prog and opens a session over it in one step (the
// compile-per-run convenience path). To share the compilation across
// sessions, use Compile once and Compiled.NewSession per run.
func New(prog *ast.Program, opts Options) (*Session, error) {
	c, err := Compile(prog, opts)
	if err != nil {
		return nil, err
	}
	return c.NewSession(), nil
}

// SetFeeder hands the session the source of its input (see Feeder). Set it
// once, before the first pull.
func (s *Session) SetFeeder(f Feeder) { s.feed = f }

// admitted is the session's admission hook: every fact the core stores or
// replaces in place opens a hub when its predicate is new to the session,
// and ends any quiescence. (A replaced row needs no more: the relation's
// delta log re-delivers it, so downstream filters observe the improved
// value as a fresh delta while their cursors stay put.)
func (s *Session) admitted(m *core.FactMeta) {
	pred := m.Fact.Pred
	if s.hubs[pred] == nil {
		s.hubs[pred] = &hub{pred: pred, rel: s.DB().Lookup(pred)}
	}
	s.quiesced = false
}

// LoadChunk admits one chunk of EDB facts (admit.Core.LoadFacts) and then
// reports any pending cancellation. Loading after the pipeline has quiesced
// resumes it: new facts can enable new derivations (incremental
// reasoning). The chunk is always admitted before the context is
// consulted, so a chunk already pulled from a cursor is never dropped
// (the caller stops before pulling the next one); duplicates are
// skipped, so re-feeding after an interrupted load stays idempotent.
// A crash mid-chunk (storage fault) is recovered into a typed error with
// the already-admitted prefix intact, so re-feeding the chunk resumes
// exactly where the crash struck.
func (s *Session) LoadChunk(ctx context.Context, facts []ast.Fact) error {
	return s.loadGuarded(ctx, func() error { return s.LoadFacts(facts) })
}

// LoadRows is LoadChunk for one chunk of a record manager's cursor: rows
// are admitted as facts of pred without being staged as facts first — the
// streaming-load entry point.
func (s *Session) LoadRows(ctx context.Context, pred string, rows [][]term.Value) error {
	return s.loadGuarded(ctx, func() error {
		for _, row := range rows {
			if err := s.LoadRow(pred, row); err != nil {
				return err
			}
		}
		return nil
	})
}

// loadGuarded runs one chunk's admission behind the load fault site and
// the load path's crash isolation, then reports ctx's state. A row the
// admission refuses (admit.ErrArity) ends the chunk there.
func (s *Session) loadGuarded(ctx context.Context, load func() error) error {
	return admit.Guard("pipeline load", func() error {
		if err := siteLoad.Check(); err != nil {
			return fmt.Errorf("pipeline: load: %w", err)
		}
		if err := load(); err != nil {
			return err
		}
		return ctx.Err()
	})
}

// Next ensures at least n+1 facts of pred exist, pulling through the
// pipeline on demand (the volcano next() of the paper). It returns false
// on a real miss: no further facts of pred can be derived. Cancelling ctx
// aborts the pull between rule firings; the session stays consistent and
// can be driven again with a live context.
//
// Input is pulled too. When the producers of pred come back dry, Next asks
// the session's Feeder for one more chunk and pulls again; only with the
// input exhausted does it sweep and, failing that, quiesce. It asks before
// honouring an earlier quiescence or a predicate nothing has stored yet —
// facts staged since the last pull must be seen — and it never sweeps while
// input remains, so the work before the first answer is at most what
// loading everything first would have cost. The one exception is a program
// with a negated body atom, which takes all its input and settles its
// negated predicates before the first pull (see settle).
//
// Facts are addressed by live-row position: retracted rows (superseded
// aggregate intermediates whose value already existed elsewhere) are
// skipped, and for an aggregate predicate a row's fact is the group's best
// value at pull time — it may later be superseded in place by an improved
// one (monotonic-aggregation intermediates are transient; only the limit
// survives quiescence).
func (s *Session) Next(ctx context.Context, pred string, n int) (ast.Fact, bool, error) {
	s.ctx, s.ctxDone = ctx, false
	s.clearResumableFailure()
	if err := s.settle(ctx); err != nil {
		return ast.Fact{}, false, err
	}
	return s.next(ctx, pred, n)
}

// settle is the stratum barrier of a program that negates: it takes all the
// input, then pulls each negated predicate, in stratum order, to exhaustion
// the way Drain pulls an output, and latches it. Until then a filter that
// negates it is dry to step and skipped by sweep, so every negation is
// tested against a complete relation. Facts loaded after a predicate has
// settled can add to it but cannot retract what its negation derived.
func (s *Session) settle(ctx context.Context) error {
	if s.c.settle == nil {
		return nil
	}
	if err := s.feed.Drain(ctx); err != nil {
		return err
	}
	for s.settled < len(s.c.settle) {
		if _, _, err := s.next(ctx, s.c.settle[s.settled], math.MaxInt); err != nil {
			return err
		}
		s.settled++
	}
	return nil
}

// next is Next past the barrier.
func (s *Session) next(ctx context.Context, pred string, n int) (ast.Fact, bool, error) {
	h := s.hubs[pred]
	for h == nil || h.rel.Live() <= n {
		if err := ctx.Err(); err != nil {
			return ast.Fact{}, false, err
		}
		if s.failure != nil {
			return ast.Fact{}, false, s.failure
		}
		if h != nil && !s.quiesced && s.pull(h) {
			continue
		}
		if s.feed != nil {
			more, err := s.feed(ctx)
			if err != nil {
				return ast.Fact{}, false, err
			}
			if more {
				h = s.hubs[pred]
				continue
			}
		}
		if h == nil || s.quiesced {
			return ast.Fact{}, false, nil
		}
		// Every producer came back dry and no input is left: one global
		// sweep decides whether a runtime cycle can still be fed
		// (real-miss detection).
		if !s.sweep() {
			if err := ctx.Err(); err != nil {
				// The dry round was (possibly) a cancellation unwind, not
				// a real miss: report the cancellation, not exhaustion.
				return ast.Fact{}, false, err
			}
			s.quiesced = s.allQuiesced()
			if h.rel.Live() <= n {
				return ast.Fact{}, false, s.failure
			}
		}
	}
	return h.rel.LiveAt(n).Fact, true, s.failure
}

// pull polls h's producers round-robin; it reports whether some producer
// delivered a new fact for h.
func (s *Session) pull(h *hub) bool {
	if len(h.producers) == 0 {
		return false
	}
	before := h.rel.Len()
	for k := 0; k < len(h.producers); k++ {
		p := h.producers[(h.rr+k)%len(h.producers)]
		if s.step(p) && h.rel.Len() > before {
			h.rr = (h.rr + k + 1) % len(h.producers)
			return true
		}
	}
	return h.rel.Len() > before
}

// step asks filter f to produce at least one new admitted fact and reports
// whether it did. It first drains already-available deltas (facts its body
// relations hold beyond its cursors), then pulls its predecessor hubs
// recursively. A filter already on the pull stack (the active flag: a
// runtime cycle) is dry.
func (s *Session) step(f *ruleFilter) bool {
	if f.active || f.waits > s.settled || s.cancelled() {
		return false
	}
	f.active = true
	defer func() { f.active = false }()

	for rounds := 0; rounds < len(f.cr.Pos)+1; rounds++ {
		// Round-robin over body atoms, preferring available deltas.
		for k := 0; k < len(f.cr.Pos); k++ {
			i := (f.rr + k) % len(f.cr.Pos)
			produced, ok := s.drain(f, i, true)
			if !ok {
				return false
			}
			if produced {
				f.rr = i
				return true
			}
		}
		// No deltas left: pull each predecessor hub once.
		progressed := false
		for k := 0; k < len(f.cr.Pos); k++ {
			i := (f.rr + k) % len(f.cr.Pos)
			ph := s.hubs[f.cr.Pos[i].Pred]
			if ph == nil {
				continue
			}
			if s.pullPredecessor(ph) {
				progressed = true
				break
			}
		}
		if !progressed {
			return false
		}
	}
	return false
}

// pullPredecessor polls ph's producers on behalf of a consuming filter: it
// stops at the first producer that admitted anything, and reports whether
// one did or ph grew.
func (s *Session) pullPredecessor(ph *hub) bool {
	before := ph.rel.Len()
	for k := 0; k < len(ph.producers); k++ {
		if s.step(ph.producers[(ph.rr+k)%len(ph.producers)]) {
			ph.rr = (ph.rr + k + 1) % len(ph.producers)
			return true
		}
	}
	return ph.rel.Len() > before
}

// drain fires filter f on its unconsumed deltas at body atom i, in delta
// order, and reports whether some firing admitted a fact; with first set it
// stops after that firing. ok is false when the drive must unwind: the
// context was cancelled, or a firing failed — s.failure holds the error and
// the cursor is rewound, so a resumed session re-fires the delta
// (idempotently) instead of silently losing its derivations.
func (s *Session) drain(f *ruleFilter, i int, first bool) (produced, ok bool) {
	rel := f.rels[i]
	for f.cursors[i] < rel.DeltaLen() {
		if s.cancelled() {
			return produced, false
		}
		m := rel.DeltaAt(f.cursors[i])
		f.cursors[i]++
		if m.Retracted {
			continue // superseded aggregate intermediate
		}
		got, err := s.fireGuarded(f, i, m)
		if err != nil {
			f.cursors[i]--
			s.failure = err
			return produced, false
		}
		if got > 0 {
			produced = true
			if first {
				break
			}
		}
	}
	return produced, true
}

// pollStride bounds how often the per-tuple loops poll the context:
// ctx.Err takes a lock, so paying it on every delta tuple would tax the
// hot path the interned-ID work keeps allocation-free. Polling every
// 256 firings keeps cancellation latency far below the millisecond
// scale the API promises. Must be a power of two.
const pollStride = 256

// cancelled reports whether the context of the current drive call has
// been cancelled, polling the context once per pollStride calls and
// latching the answer for the rest of the drive. The skipped work leaves
// cursors behind, so an unwound pull never admits partial state or
// reports a spurious quiescence.
func (s *Session) cancelled() bool {
	if s.ctxDone {
		return true
	}
	if s.ctx == nil {
		return false
	}
	if s.pollTick++; s.pollTick&(pollStride-1) != 0 {
		return false
	}
	if s.ctx.Err() != nil {
		s.ctxDone = true
		return true
	}
	return false
}

// sweep runs every filter once over its available deltas (no recursive
// pulls); it reports whether anything new was admitted. A full sweep with
// no progress is a real miss: no runtime cycle can be fed any more.
func (s *Session) sweep() bool {
	progress := false
	for fi := range s.filters {
		f := &s.filters[fi]
		if f.active || f.waits > s.settled {
			continue
		}
		for i := range f.rels {
			produced, ok := s.drain(f, i, false)
			if !ok {
				return false
			}
			progress = progress || produced
		}
	}
	return progress
}

func (s *Session) allQuiesced() bool {
	for fi := range s.filters {
		f := &s.filters[fi]
		for i, rel := range f.rels {
			if f.cursors[i] < rel.DeltaLen() {
				return false
			}
		}
	}
	return true
}

// fireGuarded runs fire with crash isolation: a panic during the firing
// (a storage fault mid-admission, say) is recovered into a positioned
// engine error. Mutations are per-fact atomic and the caller rewinds the
// delta cursor on error, so the session stays consistent and resumable.
func (s *Session) fireGuarded(f *ruleFilter, pos int, m *core.FactMeta) (n int, err error) {
	defer func() {
		if r := recover(); r != nil { //vadalint:panicguard firing crash isolation: surface a positioned resumable error, cursor rewinds at the call site
			err = &core.PanicError{Engine: "pipeline", Rule: f.cr.Rule, Value: r, Stack: debug.Stack()}
		}
	}()
	return s.fire(f, pos, m)
}

// clearResumableFailure lifts a latched terminal failure the session can
// in fact recover from, at the start of a fresh drive call: a recovered
// crash (the crashed delta's cursor was rewound, re-firing is
// idempotent) always clears; a budget failure clears once the budget has
// been raised past the admitted count. Inconsistency and genuine rule
// errors stay terminal — re-firing would just reproduce them.
func (s *Session) clearResumableFailure() {
	if s.failure == nil {
		return
	}
	var pe *core.PanicError
	if errors.As(s.failure, &pe) {
		s.failure = nil
		return
	}
	if errors.Is(s.failure, ErrBudget) && s.Derivations() < s.Meter().Limit() {
		s.failure = nil
	}
}

// fire evaluates filter f with body atom pos pinned to delta m, admitting
// any derived head facts; it returns how many facts were admitted.
//
// A bounded rule (Compiled.bounded) joins the delta only against rows f has
// already consumed: every other atom j reads rows below f.cursors[j], which
// its binding carries as eval.Binding.RowBound. A combination of body facts
// is then matched exactly once, by the firing of whichever member f consumes
// last; against whole relations it would be matched again for every member
// still waiting in a cursor, each repeat paying the probe and duplicate
// check of Emit. Rules over superseded predicates and aggregate rules match
// against the whole relation.
//
// Skolem rules keep the static schedule; everything else runs the
// (possibly cost-based) planned one. A firing whose enumeration order is
// already canonical is fused — each complete match is emitted as it is
// enumerated; any other is buffered — candidates go into a binding log
// against pre-firing state and are replayed in canonical order
// (eval.BindingLog.CanonicalOrder), which depends only on which rows
// matched, so every join order produces byte-identical output.
func (s *Session) fire(f *ruleFilter, pos int, m *core.FactMeta) (int, error) {
	cr, b := f.cr, f.bind()
	inline := s.c.Skolem[f.idx]
	steps := cr.Schedule(pos)
	if pl := s.Planner(); pl != nil && !inline {
		p := pl.PlanFor(cr, pos)
		steps = p.Steps
		if f.sized[pos] != p {
			f.sized[pos] = p
			for _, pr := range p.Probes {
				if rel := s.DB().Lookup(pr.Pred); rel != nil {
					rel.EnsureIndexSized(pr.Mask, pr.Keys)
				}
			}
		}
	}
	if inline || len(cr.Pos) <= 2 {
		// Inline rules fix their order by construction. With at most one
		// body atom left after pinning there is only one possible join
		// order: enumeration order is plan-independent (storage row order)
		// and already canonical. Admit as matched and skip the
		// capture/sort/replay round trip.
		t0 := s.now()
		defer s.lap(&s.clock.match, t0) // fused: matching and admission interleave
		admitted := 0
		err := s.mt.MatchPinnedSteps(cr, pos, m, steps, b, func(b *eval.Binding) error {
			s.matches++
			n, err := s.Emit(f.idx, b)
			admitted += n
			return err
		})
		return admitted, err
	}
	lg := &s.log
	lg.Reset()
	lg.Shape(cr)
	tm := s.now()
	err := s.mt.MatchPinnedSteps(cr, pos, m, steps, b, func(b *eval.Binding) error {
		lg.Capture(b)
		return nil
	})
	s.matches += lg.Len()
	s.lap(&s.clock.match, tm)
	if err != nil {
		return 0, err
	}
	perm := lg.CanonicalOrder(s.permBuf[:0], 0, lg.Len())
	s.permBuf = perm
	ta := s.now()
	defer s.lap(&s.clock.admit, ta)
	return s.Replay(f.idx, lg, perm, b)
}

// bind returns the filter's binding, making it on the first firing: a
// program with many rules that never fire pays nothing for them.
func (f *ruleFilter) bind() *eval.Binding {
	if f.binding == nil {
		f.binding = eval.NewBinding(f.cr)
		if f.bounded {
			// The cursors are the bound: none of these relations is ever
			// rewritten in place, so a cursor's delta count is a row count.
			f.binding.RowBound = f.cursors
		}
	}
	return f.binding
}

// Drain materializes the complete reasoning result (all output predicates
// to exhaustion, constraints and EGDs enforced). It is the batch entry
// point; the streaming API is Next.
func (s *Session) Drain(ctx context.Context) error {
	s.ctx, s.ctxDone = ctx, false
	s.clearResumableFailure()
	if err := s.settle(ctx); err != nil {
		return err
	}
	// Drive every output hub to exhaustion; if the program declares no
	// outputs, drive every IDB predicate (universal tuple inference).
	targets := make([]string, 0, len(s.c.Prog.Outputs))
	for pred := range s.c.Prog.Outputs {
		targets = append(targets, pred)
	}
	if len(targets) == 0 {
		for pred := range s.c.Prog.IDBPreds() {
			targets = append(targets, pred)
		}
	}
	sort.Strings(targets)
	for _, pred := range targets {
		n := 0
		for {
			_, ok, err := s.Next(ctx, pred, n)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			n++
		}
	}
	// Sweep to fixpoint so constraint/EGD filters observe every fact.
	for s.sweep() {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.failure != nil {
		return s.failure
	}
	return nil
}

// LoadProgramFacts admits the program's inline fact literals — the same
// facts Run loads before the EDB. Streaming callers that drive Next
// directly (bypassing Run) must call it once before pulling.
func (s *Session) LoadProgramFacts() error { return s.LoadFacts(s.c.Prog.Facts) }

// Run loads facts, drains the pipeline and returns the materialized
// result. Cancelling ctx aborts the fixpoint between rule firings.
func (s *Session) Run(ctx context.Context, edb []ast.Fact) error {
	// Loading skips duplicates, so a resumed Run re-feeding the same facts
	// admits only what an earlier crash cut off.
	err := admit.Guard("pipeline load", func() error {
		if err := s.LoadProgramFacts(); err != nil {
			return err
		}
		return s.LoadFacts(edb)
	})
	if err != nil {
		return err
	}
	return s.Drain(ctx)
}

// Quiesced reports whether the pipeline has reached its fixpoint: no
// failure is latched and no filter has unconsumed deltas. After an
// interrupted run it distinguishes "the answer is complete" from "a
// resume would derive more".
func (s *Session) Quiesced() bool { return s.failure == nil && s.allQuiesced() }

// Program returns the rewritten program the session executes.
func (s *Session) Program() *ast.Program { return s.c.Prog }
