// Package chase implements the reference reasoning engine: a breadth-first
// chase (Algorithm 2 of the paper) driven by the termination strategy of
// internal/core, over the compiled rules and indexed store of
// internal/eval and internal/storage. The streaming pipeline engine of
// internal/pipeline produces the same answers; this engine is the
// readable, correctness-first counterpart used for cross-validation.
//
// The chase is evaluated in delta batches: the queue is drained a batch at
// a time, the (rule, pinned atom, delta fact) firings of the batch are
// matched against a frozen storage epoch — in parallel when Options.
// Parallelism allows — and the candidate facts are admitted serially in
// canonical (task, match) order. Because matching is read-only and
// admission order is independent of scheduling, the final database is
// byte-identical for every worker count.
package chase

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/planner"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/term"
)

// siteMatch guards the parallel match seam: it fires inside matchTask on
// worker goroutines, so error terms exercise the captured-error path and
// panic terms exercise worker panic isolation.
var siteMatch = fault.NewSite("chase.match")

// ErrInconsistent and ErrBudget are the admission core's sentinels under
// this package's name: errors.Is holds against either.
var (
	ErrInconsistent = admit.ErrInconsistent
	ErrBudget       = admit.ErrBudget
)

// Options configures a reasoning run.
type Options struct {
	// Rewrite selects the logic-optimizer passes; zero value means
	// rewrite.DefaultOptions().
	Rewrite *rewrite.Options
	// DisableSummary turns off horizontal pruning (lifted linear forest)
	// for ablations.
	DisableSummary bool
	// MaxDerivations caps admitted facts (0 = 10_000_000).
	MaxDerivations int
	// RequireWarded makes Run fail when the (rewritten) program is not
	// warded instead of proceeding best-effort.
	RequireWarded bool
	// NewPolicy overrides the termination policy (nil = the full strategy
	// of Algorithm 1). Baselines live in internal/baseline.
	NewPolicy func(*analysis.Result) core.Policy
	// DisableDynamicIndex turns off the slot machine join's dynamic
	// in-memory indexing (ablation): lookups scan.
	DisableDynamicIndex bool
	// Parallelism sets how many worker goroutines evaluate each delta
	// batch's matches; 0 (the default) selects runtime.GOMAXPROCS(0) and 1
	// runs the whole batch on the calling goroutine. Workers only
	// parallelize the read-only match phase against a frozen storage
	// epoch; candidate facts are always admitted serially in canonical
	// order, so every setting produces a byte-identical final database.
	Parallelism int
	// DisablePlanner turns off the cost-based join planner and its CSE
	// body sharing: every firing runs the static bound-count schedule
	// compiled into the rule. Candidates are still admitted in canonical
	// order, so output is byte-identical with the planner on or off.
	DisablePlanner bool
}

// Result is the outcome of a reasoning run.
type Result struct {
	DB       *storage.Database
	Program  *ast.Program // rewritten program actually executed
	Analysis *analysis.Result
	Strategy core.Policy
	Subst    *eval.NullSubst
	Rewrite  *rewrite.Result

	// Derivations counts admitted (inserted) facts, EDB included.
	Derivations int
	posts       []ast.PostDirective
}

// Output returns the facts of pred with the program's @post directives
// applied (certain-answer filtering, ordering, limit, keepMax/keepMin
// final aggregates) and the EGD null substitution resolved, in canonical
// order (eval.ApplyPost; orderBy ties fall back to it).
func (r *Result) Output(pred string) []ast.Fact {
	return eval.ApplyPost(r.DB.FactsOf(pred), r.posts, pred, r.Subst)
}

// Compiled is the immutable compile-time artifact of a program for the
// chase engine: rewritten rules, warded analysis and per-rule executable
// plans. Compilation happens exactly once; a Compiled is safe for
// concurrent use by any number of goroutines, each deriving cheap per-run
// state with NewEngine.
type Compiled struct {
	*admit.Compiled // rewritten program, analysis, per-rule plans
	opts            Options

	// byPred maps predicate -> (rule idx, pos idx) pairs for delta pinning.
	byPred map[string][][2]int

	// CSE body sharing (planner enabled only): rules whose positive
	// bodies are identical under canonical slot renaming form a group per
	// pinned position; one shared match-only cursor enumerates the body
	// per delta and every member replays its private post-match steps.
	groups    []cseGroup
	groupOf   map[[2]int]int // (rule idx, pinned pos) -> group idx
	postSteps [][]eval.Step  // per rule: assign/cond replay steps (grouped rules)
}

// cseGroup is one set of rules sharing a positive body (see
// eval.CompiledRule.BodySignature) pinned at the same atom position.
type cseGroup struct {
	body    *eval.CompiledRule // shared match-only twin
	pos     int                // pinned atom index within the body
	members [][2]int           // the (rule idx, pos) firings sharing it
}

// Compile runs rewriting, wardedness analysis and rule compilation on
// prog and returns the shareable artifact.
func Compile(prog *ast.Program, opts Options) (*Compiled, error) {
	ac, err := admit.Compile(prog, admit.Config{
		Rewrite:             opts.Rewrite,
		RequireWarded:       opts.RequireWarded,
		MaxDerivations:      opts.MaxDerivations,
		NewPolicy:           opts.NewPolicy,
		DisableSummary:      opts.DisableSummary,
		DisableDynamicIndex: opts.DisableDynamicIndex,
	})
	if err != nil {
		return nil, err
	}
	c := &Compiled{Compiled: ac, opts: opts, byPred: make(map[string][][2]int)}
	for i, cr := range c.Rules {
		for pi, a := range cr.Pos {
			c.byPred[a.Pred] = append(c.byPred[a.Pred], [2]int{i, pi})
		}
	}
	if !opts.DisablePlanner {
		c.buildCSEGroups()
	}
	return c, nil
}

// buildCSEGroups clusters (rule, pinned pos) firings whose positive
// bodies coincide under canonical slot renaming. Each cluster with at
// least two members gets a shared match-only body rule; its members get
// their private post-match replay steps. Grouped firings enumerate the
// body once per delta instead of once per rule — the common-subexpression
// elimination of the paper's execution optimizer.
func (c *Compiled) buildCSEGroups() {
	c.groupOf = make(map[[2]int]int)
	c.postSteps = make([][]eval.Step, len(c.Rules))
	type cluster struct {
		leader  int
		members [][2]int
	}
	byKey := make(map[string]*cluster)
	var order []string // deterministic group numbering (source order)
	for ri, cr := range c.Rules {
		sig, ok := cr.BodySignature()
		if !ok || c.Skolem[ri] {
			continue
		}
		for pi := range cr.Pos {
			key := fmt.Sprintf("%s#%d", sig, pi)
			cl := byKey[key]
			if cl == nil {
				cl = &cluster{leader: ri}
				byKey[key] = cl
				order = append(order, key)
			}
			cl.members = append(cl.members, [2]int{ri, pi})
		}
	}
	for _, key := range order {
		cl := byKey[key]
		if len(cl.members) < 2 {
			continue
		}
		gid := len(c.groups)
		c.groups = append(c.groups, cseGroup{
			body:    c.Rules[cl.leader].BodyMatcher(),
			pos:     cl.members[0][1],
			members: cl.members,
		})
		for _, m := range cl.members {
			c.groupOf[m] = gid
			if c.postSteps[m[0]] == nil {
				c.postSteps[m[0]] = c.Rules[m[0]].PostMatchSteps()
			}
		}
	}
}

// Engine is the per-run state of a single reasoning session over a
// shared Compiled artifact. Engines are cheap to create and are for use
// by a single goroutine (the worker goroutines an engine spins up per
// delta batch are internal); share the Compiled, not the Engine.
type Engine struct {
	// Core owns the database, termination policy, meter and aggregate
	// state and does everything that happens to a match once found; the
	// engine's part of admission is enqueue, the hook it hands the core.
	*admit.Core
	c  *Compiled
	mt *eval.Matcher

	bindings []*eval.Binding

	queue []*core.FactMeta
	// overflow latches a failed worker-side meter reservation for the
	// current batch; step turns it into a whole-batch abort.
	overflow atomic.Bool

	// panicMu/panicErr latch the first recovered match-worker panic of the
	// current batch in canonical task order (minimum task index), so the
	// surfaced crash is the same whatever the worker count or scheduling.
	panicMu  sync.Mutex
	panicErr *core.PanicError
	panicTi  int
	// firing is the rule the serial admit path is currently evaluating,
	// giving step's crash recovery a source position.
	firing *ast.Rule

	// nworkers is the resolved Options.Parallelism; workers holds the
	// per-worker match state (snapshot Matcher + private Bindings),
	// created lazily at the first batch.
	nworkers int
	workers  []*matchWorker

	// tasks and results are the current batch: one (delta, rule, pinned
	// atom) firing per task, with the captured candidate bindings of
	// parallel-safe tasks in the matching results slot.
	tasks   []task
	results []eval.BindingLog

	// pl derives cost-based schedules from the frozen statistics snapshot
	// (nil when Options.DisablePlanner). batchSteps[ti] is task ti's
	// schedule for the current batch (nil = the static schedule); it is
	// filled serially at the batch boundary so workers read it lock-free.
	pl         *planner.Planner
	batchSteps [][]eval.Step
	planSeen   map[[2]int][]eval.Step
	cseSeen    map[cseSeenKey]int
	shared     int // follower firings served from a shared body log

	// perms[ti] is task ti's canonical admission order, computed serially
	// between the match phase and the replay.
	perms [][]int32

	// Wall-time split across the batch phases, for the -phases CLI report
	// and the scaling benchmarks: parallel match, serial admission.
	phaseMatch time.Duration
	phaseAdmit time.Duration
}

// task is one scheduled firing: rule ri with its pos-th body atom pinned
// to delta fact m. Firings of a CSE group carry the group id and the
// index of the group's leader task for this delta: the leader enumerates
// the shared body once, followers replay from its log.
type task struct {
	m    *core.FactMeta
	ri   int
	pos  int
	g    int // CSE group, -1 when ungrouped
	lead int // task index of the group leader for this delta, -1 ungrouped
}

// cseSeenKey identifies "this delta's firings of this group" while tasks
// are scheduled: the first one becomes the leader.
type cseSeenKey struct {
	m *core.FactMeta
	g int
}

// matchWorker is the per-goroutine match state: a snapshot Matcher (pure
// reads against the frozen epoch), private per-rule Bindings (plus one
// per CSE group body), and the (pred, mask) probes that had to scan for
// want of an index — promoted to real indexes at the batch boundary.
type matchWorker struct {
	mt        *eval.Matcher
	bindings  []*eval.Binding
	gbindings []*eval.Binding
	missed    []indexMiss
}

type indexMiss struct {
	pred string
	mask uint32
}

// NewEngine derives fresh run-time state (database, interner, strategy,
// bindings, queue) over the shared compiled artifact.
func (c *Compiled) NewEngine() *Engine {
	e := &Engine{c: c}
	e.nworkers = c.opts.Parallelism
	if e.nworkers <= 0 {
		e.nworkers = runtime.GOMAXPROCS(0)
	}
	e.Core = c.NewCore(e.enqueue)
	e.mt = &eval.Matcher{DB: e.DB()}
	if !c.opts.DisablePlanner {
		e.pl = planner.New(planner.FrozenCatalog{DB: e.DB()})
	}
	e.planSeen = make(map[[2]int][]eval.Step)
	e.cseSeen = make(map[cseSeenKey]int)
	for _, cr := range c.Rules {
		e.bindings = append(e.bindings, eval.NewBinding(cr))
	}
	return e
}

// enqueue is the engine's admission hook: every fact the core stores or
// replaces in place becomes a delta of the next batch.
func (e *Engine) enqueue(m *core.FactMeta) { e.queue = append(e.queue, m) }

// New compiles prog and prepares an engine over it in one step. To share
// the compilation across runs, use Compile once and Compiled.NewEngine
// per run.
func New(prog *ast.Program, opts Options) (*Engine, error) {
	c, err := Compile(prog, opts)
	if err != nil {
		return nil, err
	}
	return c.NewEngine(), nil
}

// LoadFacts admits one chunk of EDB facts — the streaming-load entry
// point: record managers feed their cursors through it chunk by chunk
// (duplicates are skipped, so re-feeding after an interrupted load is
// idempotent). Loaded facts queue as deltas for the next batch drain.
func (e *Engine) LoadFacts(facts []ast.Fact) {
	for _, f := range facts {
		e.Load(f)
	}
}

// LoadProgramFacts admits the compiled program's inline facts — the same
// facts Run loads first. It is idempotent; callers streaming bound
// inputs before Run use it to establish the canonical admission order
// (program facts, then bound inputs, then staged facts).
func (e *Engine) LoadProgramFacts() { e.LoadFacts(e.c.Prog.Facts) }

// LoadChunk is LoadFacts with the load path's crashes converted into a
// typed error: a panic mid-chunk (storage fault) leaves the prefix
// admitted and the store consistent, and since loading skips duplicates,
// re-feeding the same chunk resumes exactly where the crash struck.
func (e *Engine) LoadChunk(facts []ast.Fact) error {
	return admit.Guard("chase load", func() error {
		e.LoadFacts(facts)
		return nil
	})
}

// LoadRows is LoadChunk for one chunk of a record manager's cursor: rows
// are admitted as facts of pred without being staged as facts first.
func (e *Engine) LoadRows(pred string, rows [][]term.Value) error {
	return admit.Guard("chase load", func() error {
		for _, row := range rows {
			e.LoadRow(pred, row)
		}
		return nil
	})
}

// Quiesced reports whether the chase has reached its fixpoint: no delta
// is waiting in the queue. After an interrupted run it distinguishes "the
// answer is complete" from "a resume would derive more".
func (e *Engine) Quiesced() bool { return len(e.queue) == 0 }

// maxBatchDeltas caps how many delta facts one batch drains: candidate
// facts are buffered until the serial admit phase, so the cap bounds the
// buffering (and the first-batch index-miss scans) without affecting the
// fixpoint.
const maxBatchDeltas = 2048

// Run executes the chase to fixpoint and returns the result. Cancelling
// ctx aborts the loop between delta batches (and stops in-flight match
// workers between tasks).
func (e *Engine) Run(ctx context.Context, edb []ast.Fact) (*Result, error) {
	// Both loads skip duplicates, so a resumed Run re-feeding them admits
	// only what an earlier crash cut off.
	if err := e.LoadChunk(e.c.Prog.Facts); err != nil {
		return nil, err
	}
	if err := e.LoadChunk(edb); err != nil {
		return nil, err
	}
	for len(e.queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.step(ctx); err != nil {
			return nil, err
		}
	}
	e.releaseBatch()
	return &Result{
		DB:          e.DB(),
		Program:     e.c.Prog,
		Analysis:    e.c.Res,
		Strategy:    e.Strategy(),
		Subst:       e.Subst(),
		Rewrite:     e.c.RW,
		Derivations: e.Derivations(),
		posts:       e.c.Prog.Posts,
	}, nil
}

// releaseBatch drops the per-batch scratch — the drained queue's backing
// array, the task list, the captured match logs, schedules, canonical
// orders and the worker pool — once the fixpoint is reached. All of it is
// sized by the largest batch of the run and nothing reads it between runs,
// so an engine kept for its answer (a vadalog.Result reads through it, a
// session may wait for more facts) keeps the database reachable and not
// the run's buffers; a later Run re-grows them.
func (e *Engine) releaseBatch() {
	e.queue, e.tasks, e.results, e.workers = nil, nil, nil, nil
	e.batchSteps, e.perms = nil, nil
}

// step drains one delta batch: it schedules every (rule, pinned atom,
// delta) firing of the batch as a task, matches the parallel-safe tasks
// against a frozen storage epoch (fanned out to the worker pool), then
// admits all candidates serially in task order. Tasks of rules whose
// matching mints nulls run inline during the admit phase, at their
// canonical position. New facts enqueue for the next batch.
//
// On ANY abnormal exit — cancellation, a captured match error, a
// recovered crash, budget exhaustion or candidate-buffer overflow — the
// whole batch is put back at the head of the queue: a resumed Run
// re-fires it, which is idempotent (duplicates are eliminated, aggregate
// updates retain per-contributor maxima, Skolem minting is memoized), so
// no delta's derivations are ever lost. On candidate-buffer overflow (a
// runaway batch) nothing of the batch is admitted, keeping the database
// state at the error deterministic.
func (e *Engine) step(ctx context.Context) (err error) {
	n := len(e.queue)
	if n > maxBatchDeltas {
		n = maxBatchDeltas
	}
	batch := e.queue[:n:n]
	e.queue = e.queue[n:]
	e.tasks = e.tasks[:0]
	clear(e.cseSeen)
	for _, m := range batch {
		if m.Retracted {
			continue // superseded aggregate intermediate, no longer a fact
		}
		for _, rp := range e.c.byPred[m.Fact.Pred] {
			t := task{m: m, ri: rp[0], pos: rp[1], g: -1, lead: -1}
			if gid, ok := e.c.groupOf[rp]; ok {
				t.g = gid
				key := cseSeenKey{m: m, g: gid}
				if li, seen := e.cseSeen[key]; seen {
					t.lead = li
				} else {
					t.lead = len(e.tasks)
					e.cseSeen[key] = t.lead
				}
			}
			e.tasks = append(e.tasks, t)
		}
	}
	if len(e.tasks) == 0 {
		return nil
	}
	requeue := func() {
		e.Meter().ResetPending()
		e.queue = append(batch, e.queue...)
	}
	// Crash isolation for the serial phases (Freeze, planning, admission):
	// a panic here — a storage fault mid-admission, say — leaves the store
	// consistent (mutations are per-fact atomic), so requeueing the batch
	// keeps the session resumable and the crash surfaces as a positioned
	// engine error instead of killing the process.
	defer func() {
		if r := recover(); r != nil { //vadalint:panicguard serial chase phases: requeue the batch and surface a positioned resumable error
			requeue()
			err = &core.PanicError{Engine: "chase", Rule: e.firing, Value: r, Stack: debug.Stack()}
		}
	}()
	e.overflow.Store(false)
	e.panicErr, e.panicTi, e.firing = nil, 0, nil
	e.DB().Freeze()
	e.planBatch()
	tMatch := time.Now()
	e.matchBatch(ctx)
	e.phaseMatch += time.Since(tMatch)
	if pe := e.batchPanic(); pe != nil {
		// A match worker crashed: nothing of the batch was admitted
		// (admission is skipped wholesale), so requeueing it keeps the
		// database exactly at the previous batch's state for every worker
		// count, and a resumed Run re-matches the whole batch.
		requeue()
		return pe
	}
	if e.overflow.Load() {
		// The batch buffered more candidates than the meter's runaway
		// ceiling allows. Nothing was admitted, so the database at the
		// error is the previous batch's state for every worker count
		// (which worker observed the crossing is scheduling-dependent;
		// what was admitted is not). The batch goes back on the queue: a
		// raised budget resumes it.
		requeue()
		return fmt.Errorf("%w (batch candidate buffer overflow)", ErrBudget)
	}
	tAdmit := time.Now()
	e.orderBatch()
	err = e.admitBatch(ctx)
	e.phaseAdmit += time.Since(tAdmit)
	if err != nil {
		// Whatever interrupted admission — cancellation, budget
		// exhaustion, a captured match error, an inconsistency — the
		// partially admitted batch is restored wholesale; re-firing the
		// admitted prefix is idempotent.
		requeue()
		return err
	}
	e.Meter().ResetPending()
	e.promoteMisses()
	return nil
}

// batchPanic returns the crash latched for the current batch, nil if the
// match phase completed cleanly.
func (e *Engine) batchPanic() *core.PanicError {
	e.panicMu.Lock()
	defer e.panicMu.Unlock()
	return e.panicErr
}

// notePanic latches a recovered match-task crash, keeping the one with
// the smallest task index so the surfaced error is canonical.
func (e *Engine) notePanic(ti int, r any) {
	e.panicMu.Lock()
	defer e.panicMu.Unlock()
	if e.panicErr == nil || ti < e.panicTi {
		e.panicErr = &core.PanicError{
			Engine: "chase",
			Rule:   e.c.Rules[e.tasks[ti].ri].Rule,
			Value:  r,
			Stack:  debug.Stack(),
		}
		e.panicTi = ti
	}
}

// planBatch derives (or revalidates) the schedule of every distinct
// firing shape in the batch against the statistics snapshot the Freeze
// just captured, presizing planned probe indexes while mutation is still
// safe. It runs serially between Freeze and worker fan-out, so workers
// read batchSteps lock-free and every worker plans against the same
// numbers it matches against. With the planner disabled batchSteps stays
// nil and every firing runs its static schedule.
func (e *Engine) planBatch() {
	if cap(e.batchSteps) < len(e.tasks) {
		e.batchSteps = make([][]eval.Step, len(e.tasks))
	}
	e.batchSteps = e.batchSteps[:len(e.tasks)]
	for ti := range e.batchSteps {
		e.batchSteps[ti] = nil
	}
	if e.pl == nil {
		return
	}
	clear(e.planSeen)
	for ti := range e.tasks {
		t := &e.tasks[ti]
		if e.c.Skolem[t.ri] || (t.lead >= 0 && t.lead != ti) {
			continue // inline firings keep the static schedule; followers share
		}
		key := [2]int{t.ri, t.pos}
		cr := e.c.Rules[t.ri]
		if t.lead == ti {
			key = [2]int{-1 - t.g, t.pos}
			cr = e.c.groups[t.g].body
		}
		steps, ok := e.planSeen[key]
		if !ok {
			plan := e.pl.PlanFor(cr, t.pos)
			for _, pr := range plan.Probes {
				if rel := e.DB().Lookup(pr.Pred); rel != nil {
					rel.EnsureIndexSized(pr.Mask, pr.Keys)
				}
			}
			steps = plan.Steps
			e.planSeen[key] = steps
		}
		e.batchSteps[ti] = steps
	}
}

// matchBatch runs the read-only match phase: the batch's parallel-safe
// tasks are matched against the epoch step just froze by nworkers
// goroutines pulling task indexes off a shared counter. With one worker
// the phase runs inline on the calling goroutine — same algorithm, no
// pool.
func (e *Engine) matchBatch(ctx context.Context) {
	if cap(e.results) < len(e.tasks) {
		e.results = make([]eval.BindingLog, len(e.tasks))
	}
	e.results = e.results[:len(e.tasks)]
	// Small batches are not worth goroutine fan-out: run them inline. The
	// threshold depends only on the task count, never on the worker count
	// or scheduling, so determinism is unaffected.
	const fanoutThreshold = 64
	nw := e.nworkers
	if nw > len(e.tasks) {
		nw = len(e.tasks)
	}
	if len(e.tasks) < fanoutThreshold {
		nw = 1
	}
	e.ensureWorkers(nw)
	if nw <= 1 {
		w := e.workers[0]
		for ti := range e.tasks {
			if ctx.Err() != nil {
				return
			}
			e.matchTask(w, ti)
		}
		return
	}
	// Workers claim fixed-size chunks of the task array off one atomic
	// cursor: cheap, locality-friendly, and the assignment of tasks to
	// workers is irrelevant to the result (results land in per-task slots).
	const chunk = 16
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		w := e.workers[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(chunk)) - chunk
				if start >= len(e.tasks) || ctx.Err() != nil {
					return
				}
				end := start + chunk
				if end > len(e.tasks) {
					end = len(e.tasks)
				}
				for ti := start; ti < end; ti++ {
					e.matchTask(w, ti)
				}
			}
		}()
	}
	wg.Wait()
}

// matchTask enumerates the matches of one firing against the frozen epoch
// and captures each complete binding into the task's log. Budget pressure
// is metered atomically: a batch that buffers far more candidates than the
// derivation budget aborts instead of growing without bound.
//
// A panicking task never kills the process (worker isolation): the crash
// is recovered here, latched in canonical task order, and step turns it
// into a positioned engine error with the whole batch requeued.
func (e *Engine) matchTask(w *matchWorker, ti int) {
	defer func() {
		if r := recover(); r != nil { //vadalint:panicguard worker panic isolation: latch the crash, step requeues the batch
			e.notePanic(ti, r)
		}
	}()
	t := &e.tasks[ti]
	if e.c.Skolem[t.ri] {
		return // evaluated inline on the serial admit path
	}
	if t.lead >= 0 && t.lead != ti {
		return // follower: replays the leader's shared body log at admit
	}
	cr := e.c.Rules[t.ri]
	b := w.bindings[t.ri]
	reserve := 1
	if t.lead == ti {
		// Leader of a CSE group: enumerate the shared body once; every
		// member admits each candidate, so reserve for all of them.
		cr = e.c.groups[t.g].body
		b = w.gbindings[t.g]
		reserve = len(e.c.groups[t.g].members)
	}
	steps := e.batchSteps[ti]
	if steps == nil {
		steps = cr.Schedule(t.pos)
	}
	lg := &e.results[ti]
	lg.Reset(cr)
	if err := siteMatch.Check(); err != nil {
		rule := e.c.Rules[t.ri].Rule
		lg.Err = fmt.Errorf("chase: %d:%d: rule %d: %w", rule.Line, rule.Col, rule.ID, err)
		return
	}
	if err := w.mt.MatchPinnedSteps(cr, t.pos, t.m, steps, b, func(b *eval.Binding) error {
		if !e.Meter().Reserve(reserve) {
			e.overflow.Store(true)
			return errBatchOverflow
		}
		lg.Capture(b)
		return nil
	}); err != nil {
		lg.Err = err
	}
}

// errBatchOverflow aborts a task's enumeration when candidate buffering
// overran the meter's runaway ceiling; step discards the whole batch and
// surfaces ErrBudget, so this sentinel never escapes the engine.
var errBatchOverflow = errors.New("chase: batch candidate buffer overflow")

// orderBatch computes every log-owning task's canonical admission order
// into perms (followers reuse their leader's). It runs serially, between
// the match phase and the replay.
func (e *Engine) orderBatch() {
	if cap(e.perms) < len(e.tasks) {
		perms := make([][]int32, len(e.tasks))
		copy(perms, e.perms)
		e.perms = perms
	}
	e.perms = e.perms[:len(e.tasks)]
	for ti := range e.tasks {
		t := &e.tasks[ti]
		if e.c.Skolem[t.ri] || (t.lead >= 0 && t.lead != ti) {
			e.perms[ti] = e.perms[ti][:0]
			continue
		}
		e.perms[ti] = e.results[ti].CanonicalOrder(e.perms[ti])
	}
}

// admitBatch replays the batch's candidates in canonical (task, match)
// order through the serial emit path: aggregation state, EGD unification,
// existential instantiation and admission all happen here, on the calling
// goroutine, so the database evolves identically for every worker count.
// Within a task, candidates are admitted in the canonical order of their
// matched source rows (eval.BindingLog.CanonicalOrder), which depends
// only on what matched — never on the join order that found it — so the
// database also evolves identically for every plan choice. A task's
// captured error surfaces after its captured candidates — deterministic,
// since the canonical order is.
func (e *Engine) admitBatch(ctx context.Context) error {
	for ti := range e.tasks {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := &e.tasks[ti]
		// A delta superseded by an earlier task of this very batch (its
		// aggregate intermediate was retracted) no longer fires — the same
		// pop-time check the serial engine performed; its replacement fact
		// is already queued.
		if t.m.Retracted {
			continue
		}
		cr := e.c.Rules[t.ri]
		e.firing = cr.Rule // positions a crash recovered by step
		if e.c.Skolem[t.ri] {
			if err := e.fire(t.ri, t.pos, t.m); err != nil {
				return err
			}
			continue
		}
		lg := &e.results[ti]
		perm := e.perms[ti]
		if t.lead >= 0 && t.lead != ti {
			lg = &e.results[t.lead]
			perm = e.perms[t.lead]
			e.shared++
		}
		b := e.bindings[t.ri]
		if t.g < 0 {
			if _, err := e.Replay(t.ri, lg, perm, b); err != nil {
				return err
			}
		} else {
			// Group member: the log holds the shared body match; replay
			// this rule's private assignments and conditions, then emit.
			ri := t.ri
			replayEmit := func(b *eval.Binding) error { return e.emit(ri, b) }
			for _, i := range perm {
				lg.Restore(int(i), e.DB().Interner(), b)
				if err := e.mt.Replay(cr, e.c.postSteps[ri], b, replayEmit); err != nil {
					return err
				}
			}
		}
		if lg.Err != nil {
			return lg.Err
		}
	}
	e.firing = nil
	return nil
}

// ensureWorkers grows the worker pool to n workers, each with its own
// snapshot Matcher and per-rule Bindings.
func (e *Engine) ensureWorkers(n int) {
	if n < 1 {
		n = 1
	}
	for len(e.workers) < n {
		w := &matchWorker{mt: &eval.Matcher{DB: e.DB(), Snapshot: true}}
		w.mt.OnIndexMiss = func(pred string, mask uint32) {
			w.missed = append(w.missed, indexMiss{pred: pred, mask: mask})
		}
		for _, cr := range e.c.Rules {
			w.bindings = append(w.bindings, eval.NewBinding(cr))
		}
		for gi := range e.c.groups {
			w.gbindings = append(w.gbindings, eval.NewBinding(e.c.groups[gi].body))
		}
		e.workers = append(e.workers, w)
	}
}

// promoteMisses promotes every (pred, mask) a snapshot probe had to scan
// this batch, so subsequent batches probe them hashed — the slot machine
// join's lazy indexing, deferred to batch boundaries where mutation is
// safe. Promotion goes through Relation.PromoteIndex, which records the
// scan in the mask's usage counters and declines to rebuild a cold index
// (one that was built before and evicted without ever serving a probe),
// so never-paying masks stop being re-promoted every epoch.
func (e *Engine) promoteMisses() {
	for _, w := range e.workers {
		for _, ms := range w.missed {
			if rel := e.DB().Lookup(ms.pred); rel != nil {
				rel.PromoteIndex(ms.mask, 0)
			}
		}
		w.missed = w.missed[:0]
	}
}

// PlannerStats reports, for diagnostics and tests: how many plans the
// cost-based planner derived and how many were drift-triggered
// recomputations (0, 0 with the planner disabled), and how many firings
// were served from a CSE-shared body enumeration.
func (e *Engine) PlannerStats() (derives, replans, sharedFirings int) {
	if e.pl != nil {
		derives, replans = e.pl.Derives(), e.pl.Replans()
	}
	return derives, replans, e.shared
}

// PhaseStats reports cumulative wall time spent in the phases of the
// delta-batched loop — parallel match and serial admission (canonical
// ordering included) — in the three-value shape the benchmark harness
// reads: there is no pre-pass, so its share is always zero, as on the
// pipeline. The split shows whether a workload is admission-bound.
func (e *Engine) PhaseStats() (match, prepass, admit time.Duration) {
	return e.phaseMatch, 0, e.phaseAdmit
}

// fire applies rule ri with its pos-th body atom pinned to delta fact m,
// matching and emitting fused on the calling goroutine (the serial path
// for rules whose matching mints nulls).
func (e *Engine) fire(ri, pos int, m *core.FactMeta) error {
	return e.mt.MatchPinned(e.c.Rules[ri], pos, m, e.bindings[ri], func(b *eval.Binding) error {
		return e.emit(ri, b)
	})
}

// emit hands one complete binding of rule ri to the admission core; what
// it admits comes back through enqueue.
func (e *Engine) emit(ri int, b *eval.Binding) error {
	_, err := e.Emit(ri, b)
	return err
}

// Run is the convenience one-shot entry point.
func Run(ctx context.Context, prog *ast.Program, edb []ast.Fact, opts Options) (*Result, error) {
	e, err := New(prog, opts)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, edb)
}
