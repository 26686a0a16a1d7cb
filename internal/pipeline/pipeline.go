// Package pipeline implements the Vadalog system's production engine: the
// pipe-and-filters architecture of paper Sec. 4. Rules compile into filter
// nodes connected by pipes (an edge from filter a to filter b when a's
// head unifies with an atom in b's body); reasoning is a pull (volcano)
// data stream driven by the sinks. Filters poll their predecessors
// round-robin; a filter already on the pull stack (a runtime invocation
// cycle) answers dry, and when every pull comes back dry one sweep tells a
// cycle that can still be fed from a real miss; each filter wraps fact
// production in a termination-strategy wrapper running Algorithm 1.
//
// A pull (Session.Next) drives only the pulled predicate's relevance cone
// (analysis.Cone, memoized per predicate in Compiled): its sweep visits
// the filters the predicate reaches backward, and every constraint and EGD
// filter with its own cone. A filter outside the cone has nothing pulling
// from it and stays unfired until Drain, which sweeps every filter.
//
// A filter reads each body atom through a cursor of its own, and a firing
// pins one delta and joins it only against rows the filter has already
// consumed at the other atoms — semi-naive evaluation, with the cursors as
// the bound — so each combination of body facts is matched exactly once.
// Aggregate rules and rules over a predicate admission rewrites in place
// (admit.Compiled.InPlace: a superseding aggregate head or its tag twin)
// are the exception: supersession makes their emissions order-dependent, so
// they join against whole relations (Compiled.bounded).
//
// A program that negates has the chase's stratum barrier
// (admit.Compiled.Stratum): it takes all its input before the first pull
// and sweeps each stratum below the top one to its fixpoint in turn
// (Session.settle). A filter of stratum s stays dry until every lower
// stratum is complete, so a negation is tested against a complete relation.
package pipeline

import (
	"context"
	"errors"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/admit"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/storage"
)

// Options configures a pipeline session: the admission core's one option
// set (admit.Config). PhaseTiming switches on the per-firing clocks behind
// Session.PhaseStats; fused firings (inline and short rules) count as match
// time.
type Options = admit.Config

// Session is the per-run state of one reasoning task over a shared
// Compiled artifact: database, interner, termination strategy, buffers,
// bindings and cursors. Sessions are cheap to create (Compiled.NewSession)
// and are for use by a single goroutine; share the Compiled, not the
// Session.
type Session struct {
	// Core owns the database, termination policy, meter, bindings and
	// aggregate state and decides everything a firing does; the session's
	// part of admission is admitted, the hook it hands the core.
	*admit.Core
	c *Compiled

	filters []ruleFilter
	hubs    map[string]*hub

	// ctx is the context of the drive call currently on the stack; the
	// recursive pull machinery checks it between rule firings. ctxDone
	// latches an observed cancellation until the next drive call;
	// pollTick strides the ctx.Err polls (see cancelled).
	ctx      context.Context
	ctxDone  bool
	pollTick uint32

	failure  error
	quiesced bool

	// epoch counts the facts stored or replaced (admitted) and the
	// top-level pulls (pull): a filter whose whole step came back dry with
	// epoch unmoved is dry again until it moves (ruleFilter.dryAt).
	epoch int

	// done counts the strata complete at the barrier (settle); a filter of
	// a higher stratum is dry.
	done int

	// log and permBuf buffer one firing's candidate bindings so they are
	// admitted in canonical order regardless of the join order (the core's
	// planner, or the static schedule) that enumerated them.
	log     eval.BindingLog
	permBuf []int32

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
	idx     int
	cr      *eval.CompiledRule
	bounded bool // the rule's Compiled.bounded

	// rels[i] is body atom i's relation, resolved once at session start;
	// cursors[i] counts its facts already consumed as deltas.
	rels    []*storage.Relation
	cursors []int
	rr      int
	active  bool // on the current pull stack (runtime cycle detection)
	stratum int  // the rule's admit.Compiled.Stratum: dry until Session.done reaches it

	// dryAt holds Session.epoch, plus one, as it stood when a step of this
	// filter last came back dry having admitted nothing anywhere; zero when
	// no step has.
	dryAt int
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
	s.epoch++
}

// Next ensures at least n+1 facts of pred exist, pulling through the
// pipeline on demand (the volcano next() of the paper). It returns false
// on a real miss: no further facts of pred can be derived. Cancelling ctx
// aborts the pull between rule firings; the session stays consistent and
// can be driven again with a live context.
//
// Next drives only pred's relevance cone (Compiled.cone): its sweep visits
// the cone's filters alone, so on a real miss pred and every predicate of
// its cone are complete, and a predicate outside it holds what stands until
// Drain.
//
// Input is pulled too. When the producers of pred come back dry, Next asks
// the core's Feeder for one more chunk (admit.Core.Feed) and pulls again;
// only with the input exhausted does it sweep the cone and, failing that,
// quiesce. It asks before honouring an earlier quiescence or a predicate
// nothing has stored yet — facts staged since the last pull must be seen —
// and it never sweeps while input remains, so the work before the first
// answer is at most what loading everything first would have cost. The one
// exception is a program with a negated body atom, which takes all its
// input and completes every stratum below the top one before the first
// pull (see settle).
//
// Facts are addressed by live-row position: retracted rows (superseded
// aggregate intermediates whose value already existed elsewhere) are
// skipped, and for an aggregate predicate a row's fact is the group's best
// value at pull time — it may later be superseded in place by an improved
// one (monotonic-aggregation intermediates are transient; only the limit
// survives quiescence).
//
// A yielded fact has the EGD null substitution resolved
// (admit.Core.LiveFact). In a program with an EGD, a fact that still
// carries a null waits until every EGD has seen all it can (settleNulls),
// so no later unification can change what was yielded.
func (s *Session) Next(ctx context.Context, pred string, n int) (ast.Fact, bool, error) {
	rel, err := s.drive(ctx, pred, n, true)
	if rel == nil {
		return ast.Fact{}, false, err
	}
	f := s.LiveFact(rel, n)
	if err == nil && s.c.EGDs && !f.IsGround() {
		if err := s.settleNulls(ctx); err != nil {
			return ast.Fact{}, false, err
		}
		f = s.LiveFact(rel, n)
	}
	return f, true, err
}

// drive is Next up to the yield: it returns pred's relation once it holds
// n+1 live facts, nil on a real miss. With relevant unset its sweeps visit
// every filter, as Drain's must.
func (s *Session) drive(ctx context.Context, pred string, n int, relevant bool) (*storage.Relation, error) {
	s.ctx, s.ctxDone = ctx, false
	s.clearResumableFailure()
	if err := s.settle(ctx); err != nil {
		return nil, err
	}
	return s.next(ctx, pred, n, relevant)
}

// settle is the stratum barrier of a program that negates, the chase's: it
// takes all the input, then sweeps each stratum below the top one to its
// fixpoint in turn. Until every stratum below s is complete, a filter of
// stratum s is dry to step and skipped by sweep, so every negation is tested
// against a complete relation. Facts loaded after the barrier can add to a
// lower stratum but cannot retract what a negation derived.
func (s *Session) settle(ctx context.Context) error {
	if s.c.Stratum == nil {
		return nil
	}
	if err := s.FeedAll(ctx); err != nil {
		return err
	}
	for s.done < s.c.Strata()-1 {
		if err := s.fixpoint(ctx, nil); err != nil {
			return err
		}
		s.done++
	}
	return nil
}

// settleNulls takes all the input and sweeps every EGD's cone to its
// fixpoint (Compiled.egdCone): every null an EGD can unify is then unified.
func (s *Session) settleNulls(ctx context.Context) error {
	if err := s.FeedAll(ctx); err != nil {
		return err
	}
	return s.fixpoint(ctx, s.c.egdCone)
}

// fixpoint sweeps cone (every filter when nil) until a sweep admits
// nothing, and reports cancellation or the latched failure.
func (s *Session) fixpoint(ctx context.Context, cone []int) error {
	for s.sweep(cone) && ctx.Err() == nil {
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.failure
}

// next is drive past the barrier.
func (s *Session) next(ctx context.Context, pred string, n int, relevant bool) (*storage.Relation, error) {
	h := s.hubs[pred]
	for h == nil || h.rel.Live() <= n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.failure != nil {
			return nil, s.failure
		}
		if h != nil && !s.quiesced && s.pull(h) {
			continue
		}
		more, err := s.Feed(ctx)
		if err != nil {
			return nil, err
		}
		if more {
			h = s.hubs[pred]
			continue
		}
		if h == nil && relevant {
			// A predicate nothing stores has no producer to pull, but its
			// cone still holds every constraint and EGD: sweeping it to its
			// fixpoint fails the stream of an inconsistent KB.
			return nil, s.fixpoint(ctx, s.c.cone(pred))
		}
		if h == nil || s.quiesced {
			return nil, nil
		}
		// Every producer came back dry and no input is left: one sweep of
		// the cone decides whether a runtime cycle can still be fed
		// (real-miss detection). The cone is looked up only here, so a
		// pull that never comes back dry never asks for it.
		var cone []int
		if relevant {
			cone = s.c.cone(pred)
		}
		if !s.sweep(cone) {
			if err := ctx.Err(); err != nil {
				// The dry round was (possibly) a cancellation unwind, not
				// a real miss: report the cancellation, not exhaustion.
				return nil, err
			}
			s.quiesced = s.allQuiesced()
			if h.rel.Live() <= n {
				return nil, s.failure
			}
		}
	}
	return h.rel, s.failure
}

// pull polls h's producers round-robin; it reports whether some producer
// delivered a new fact for h.
func (s *Session) pull(h *hub) bool {
	if len(h.producers) == 0 {
		return false
	}
	s.epoch++
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
//
// A step that drained every delta and found every predecessor dry, with
// nothing admitted anywhere meanwhile, is remembered (dryAt): until a fact
// is admitted or a new top-level pull starts, the filter answers dry at
// once. Without that, a pull through many mutually recursive producers
// walks every simple path among them before it comes back dry, and the
// pull's sweep then finds what is left.
func (s *Session) step(f *ruleFilter) bool {
	if f.active || f.stratum > s.done || s.cancelled() {
		return false
	}
	at := s.epoch + 1
	if f.dryAt == at {
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
			// No pull starts inside a step, so only an admission moves epoch.
			if s.epoch+1 == at && !s.ctxDone && s.failure == nil {
				f.dryAt = at
			}
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

// sweep runs every filter of cone once over its available deltas (no
// recursive pulls), every filter when cone is nil; it reports whether
// anything new was admitted. A sweep with no progress is a real miss: no
// runtime cycle of the cone can be fed any more.
func (s *Session) sweep(cone []int) bool {
	n := len(s.filters)
	if cone != nil {
		n = len(cone)
	}
	progress := false
	for k := 0; k < n; k++ {
		fi := k
		if cone != nil {
			fi = cone[k]
		}
		f := &s.filters[fi]
		if f.active || f.stratum > s.done {
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
	if errors.Is(s.failure, admit.ErrBudget) && s.Derivations() < s.Meter().Limit() {
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
// The core picks the schedule (admit.Core.Steps). A firing whose
// enumeration order is already canonical is fused — each complete match is
// emitted as it is enumerated; any other is buffered — candidates go into a
// binding log against pre-firing state and are replayed in canonical order
// (eval.BindingLog.CanonicalOrder), which depends only on which rows
// matched, so every join order produces byte-identical output.
func (s *Session) fire(f *ruleFilter, pos int, m *core.FactMeta) (int, error) {
	b := s.Binding(f.idx)
	if f.bounded {
		// The cursors are the bound: none of these relations is ever
		// rewritten in place, so a cursor's delta count is a row count.
		b.RowBound = f.cursors
	}
	if s.c.Skolem[f.idx] || len(f.cr.Pos) <= 2 {
		// Inline rules fix their order by construction. With at most one
		// body atom left after pinning there is only one possible join
		// order: enumeration order is plan-independent (storage row order)
		// and already canonical. Admit as matched and skip the
		// capture/sort/replay round trip.
		t0 := s.now()
		defer s.lap(&s.clock.match, t0) // fused: matching and admission interleave
		return s.Fire(f.idx, pos, m, b)
	}
	lg := &s.log
	lg.Reset()
	lg.Shape(f.cr)
	tm := s.now()
	err := s.Match(f.idx, f.cr, pos, m, b, func(b *eval.Binding) error {
		lg.Capture(b)
		return nil
	})
	s.lap(&s.clock.match, tm)
	if err != nil {
		return 0, err
	}
	perm := lg.CanonicalOrder(s.permBuf[:0], 0, lg.Len())
	s.permBuf = perm
	ta := s.now()
	defer s.lap(&s.clock.admit, ta)
	return s.Replay(f.idx, lg, perm, b, nil)
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
			rel, err := s.drive(ctx, pred, n, false)
			if err != nil {
				return err
			}
			if rel == nil {
				break
			}
			n++
		}
	}
	// Sweep to fixpoint so constraint/EGD filters observe every fact.
	return s.fixpoint(ctx, nil)
}

// Run loads the program's facts and edb, drains the pipeline and returns
// the materialized result. Cancelling ctx aborts the fixpoint between rule
// firings. Loading skips duplicates, so a resumed Run re-feeding the same
// facts admits only what an earlier crash cut off.
func (s *Session) Run(ctx context.Context, edb []ast.Fact) error {
	err := s.LoadProgramFacts()
	if err == nil {
		err = s.LoadChunk(ctx, edb)
	}
	if err == nil {
		err = s.Drain(ctx)
	}
	return err
}

// Quiesced reports whether the pipeline has reached its fixpoint: no
// failure is latched and no filter has unconsumed deltas. After an
// interrupted run it distinguishes "the answer is complete" from "a
// resume would derive more".
func (s *Session) Quiesced() bool { return s.failure == nil && s.allQuiesced() }

// Explain renders the access plan annotated, per rule and per delta-pinned
// body atom, with the join order the cost-based planner chooses and the
// estimates that drove it (admit.Core.Explain).
func (s *Session) Explain() string { return s.Core.Explain(nil) }

// Program returns the rewritten program the session executes.
func (s *Session) Program() *ast.Program { return s.c.Prog }
