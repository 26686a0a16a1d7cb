// Package chase implements the reference reasoning engine: a breadth-first
// chase (Algorithm 2 of the paper) driven by the termination strategy of
// internal/core, over the compiled rules and indexed store of
// internal/eval and internal/storage. The streaming pipeline engine of
// internal/pipeline produces the same answers; this engine is the
// readable, correctness-first counterpart used for cross-validation.
//
// The chase is evaluated in delta batches: the queue is drained a batch at
// a time, every (rule, pinned atom, delta fact) firing of the batch is
// matched against the database as it stood when the batch began, and the
// candidate facts are then admitted in canonical (task, match) order.
// Nothing is admitted while the batch matches, so the live store is that
// state, and because the canonical order depends only on what matched, the
// final database is byte-identical for every join order the planner picks.
//
// A program that negates has one delta queue per stratum, and a batch comes
// from the lowest non-empty one: a stratum's rules fire only once every
// stratum below it has reached its fixpoint, so a negated atom is tested
// against a complete relation.
package chase

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/term"
)

// siteMatch guards the match phase: it fires in matchTask, once per matched
// task, so error terms exercise the captured-error path and panic terms the
// batch requeue of step's crash recovery.
var siteMatch = fault.NewSite("chase.match")

// ErrInconsistent and ErrBudget are the admission core's sentinels under
// this package's name: errors.Is holds against either.
var (
	ErrInconsistent = admit.ErrInconsistent
	ErrBudget       = admit.ErrBudget
)

// Options configures a reasoning run: the admission core's one option set
// (admit.Config). The chase times its batches whatever PhaseTiming says.
type Options = admit.Config

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

	// byPred maps predicate -> (rule idx, pos idx) pairs for delta pinning.
	byPred map[string][][2]int

	// stratum is each rule's stratum and readers each predicate's distinct
	// reader strata, ascending, when the program negates (admit.Compiled's
	// Strata); both nil otherwise, when there is one delta queue.
	stratum []int
	readers map[string][]int

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
	ac, err := admit.Compile(prog, opts)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Compiled: ac, byPred: make(map[string][][2]int)}
	for i, cr := range c.Rules {
		for pi, a := range cr.Pos {
			c.byPred[a.Pred] = append(c.byPred[a.Pred], [2]int{i, pi})
		}
	}
	if c.Strata != nil {
		c.stratifyRules()
	}
	if !opts.DisablePlanner {
		c.buildCSEGroups()
	}
	return c, nil
}

// stratifyRules fills stratum and readers. A rule's stratum is its head's;
// a constraint or EGD takes the least stratum above everything it reads,
// a negated atom counting one more than its predicate.
func (c *Compiled) stratifyRules() {
	c.stratum = make([]int, len(c.Rules))
	c.readers = make(map[string][]int)
	for i, cr := range c.Rules {
		r := cr.Rule
		if len(r.Heads) > 0 {
			c.stratum[i] = c.Strata[r.Heads[0].Pred]
		} else {
			for _, a := range r.Body {
				s := c.Strata[a.Pred]
				if a.Negated {
					s++
				}
				c.stratum[i] = max(c.stratum[i], s)
			}
		}
		for _, a := range cr.Pos {
			if rs := c.readers[a.Pred]; !slices.Contains(rs, c.stratum[i]) {
				rs = append(rs, c.stratum[i])
				slices.Sort(rs)
				c.readers[a.Pred] = rs
			}
		}
	}
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
// by a single goroutine; share the Compiled, not the Engine.
type Engine struct {
	// Core owns the database, termination policy, meter and aggregate
	// state and does everything that happens to a match once found; the
	// engine's part of admission is enqueue, the hook it hands the core.
	*admit.Core
	c  *Compiled
	mt *eval.Matcher

	// bindings holds one reusable Binding per rule, gbindings one per CSE
	// group body, each made on its first firing (see binding).
	bindings  []*eval.Binding
	gbindings []*eval.Binding

	// queues holds the deltas waiting for a batch, one queue per rule
	// stratum: a delta joins the queue of every stratum whose rules read it,
	// and a batch drains the lowest non-empty queue, so a negated relation
	// is complete before its readers fire. One queue when nothing negates.
	queues [][]*core.FactMeta
	// room is how many more candidates the current batch may buffer before
	// the runaway ceiling (see candHeadroom) aborts it.
	room int

	// firing is the rule being matched or admitted, giving step's crash
	// recovery a source position.
	firing *ast.Rule

	// tasks is the current batch: one (delta, rule, pinned atom) firing per
	// task. log holds the candidate bindings every task captured in the
	// match phase, task by task, and perm their canonical admission order,
	// computed between the match phase and the replay: perm[t.lo:t.hi] is
	// task t's. plans holds the batch's planned schedules, one per firing
	// shape (planSeen: shape -> index). All of it grows amortized over the
	// run.
	tasks    []task
	log      eval.BindingLog
	perm     []int32
	plans    [][]eval.Step
	planSeen map[[2]int]int32
	cseSeen  map[cseSeenKey]int32
	shared   int // follower firings served from a shared body range

	// errTask is the first task of the batch whose enumeration failed (-1:
	// none) and taskErr its error, surfaced once that task's captured
	// prefix is replayed — exactly the order a fused firing would have
	// observed; admission stops there, so a later task's error never shows.
	errTask int32
	taskErr error

	// Wall-time split across the batch phases, for the -phases CLI report
	// and the benchmarks: match, admission.
	phaseMatch time.Duration
	phaseAdmit time.Duration
}

// task is one scheduled firing: rule ri with its pos-th body atom pinned
// to delta fact m. Firings of a CSE group carry the group id and the
// index of the group's leader task for this delta: the leader enumerates
// the shared body once, followers replay from its range of the log. A
// batch holds a task per firing of every delta it drains, so the struct is
// kept small.
type task struct {
	m    *core.FactMeta
	ri   int32
	pos  int32
	g    int32 // CSE group, -1 when ungrouped
	lead int32 // task index of the group leader for this delta, -1 ungrouped
	// plan indexes the batch's planned schedules, -1 for the static one.
	plan int32
	// lo and hi delimit the entries of the batch's log the task captured.
	lo, hi int32
}

// follower reports whether task ti, t, replays its group leader's range
// instead of matching.
func (t *task) follower(ti int) bool { return t.lead >= 0 && int(t.lead) != ti }

// cseSeenKey identifies "this delta's firings of this group" while tasks
// are scheduled: the first one becomes the leader.
type cseSeenKey struct {
	m *core.FactMeta
	g int
}

// NewEngine derives fresh run-time state (database, interner, strategy,
// bindings, queue) over the shared compiled artifact.
func (c *Compiled) NewEngine() *Engine {
	queues := 1
	for _, s := range c.stratum {
		queues = max(queues, s+1)
	}
	e := &Engine{c: c, queues: make([][]*core.FactMeta, queues)}
	e.Core = c.NewCore(e.enqueue)
	e.mt = &eval.Matcher{DB: e.DB()}
	e.planSeen = make(map[[2]int]int32)
	e.cseSeen = make(map[cseSeenKey]int32)
	e.bindings = make([]*eval.Binding, len(c.Rules))
	e.gbindings = make([]*eval.Binding, len(c.groups))
	return e
}

// binding returns rule ri's binding, making it on the rule's first firing:
// a program with many rules that never fire pays nothing for them.
func (e *Engine) binding(ri int) *eval.Binding {
	if e.bindings[ri] == nil {
		e.bindings[ri] = eval.NewBinding(e.c.Rules[ri])
	}
	return e.bindings[ri]
}

// gbinding is binding for CSE group g's shared body.
func (e *Engine) gbinding(g int) *eval.Binding {
	if e.gbindings[g] == nil {
		e.gbindings[g] = eval.NewBinding(e.c.groups[g].body)
	}
	return e.gbindings[g]
}

// enqueue is the engine's admission hook: every fact the core stores or
// replaces in place becomes a delta of a later batch, in the queue of each
// stratum that reads it.
func (e *Engine) enqueue(m *core.FactMeta) {
	if e.c.readers == nil {
		e.queues[0] = append(e.queues[0], m)
		return
	}
	for _, s := range e.c.readers[m.Fact.Pred] {
		e.queues[s] = append(e.queues[s], m)
	}
}

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

// LoadProgramFacts admits the compiled program's inline facts — the same
// facts Run loads first. It is idempotent; callers streaming bound
// inputs before Run use it to establish the canonical admission order
// (program facts, then bound inputs, then staged facts).
func (e *Engine) LoadProgramFacts() error { return e.LoadFacts(e.c.Prog.Facts) }

// LoadChunk admits one chunk of EDB facts — the streaming-load entry point
// (admit.Core.LoadFacts) — with the load path's crashes converted into a
// typed error: a panic mid-chunk (storage fault) leaves the prefix
// admitted and the store consistent, and since loading skips duplicates,
// re-feeding the same chunk resumes exactly where the crash struck. A fact
// of another arity than its predicate's stops the chunk with
// admit.ErrArity. Loaded facts queue as deltas for the next batch drain.
func (e *Engine) LoadChunk(facts []ast.Fact) error {
	return admit.Guard("chase load", func() error { return e.LoadFacts(facts) })
}

// LoadRows is LoadChunk for one chunk of a record manager's cursor: rows
// are admitted as facts of pred without being staged as facts first.
func (e *Engine) LoadRows(pred string, rows [][]term.Value) error {
	return admit.Guard("chase load", func() error {
		for _, row := range rows {
			if err := e.LoadRow(pred, row); err != nil {
				return err
			}
		}
		return nil
	})
}

// Quiesced reports whether the chase has reached its fixpoint: no delta
// is waiting in any queue. After an interrupted run it distinguishes "the
// answer is complete" from "a resume would derive more".
func (e *Engine) Quiesced() bool {
	for _, q := range e.queues {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// maxBatchDeltas caps how many delta facts one batch drains: candidate
// facts are buffered until the admit phase, so the cap bounds the
// buffering without affecting the fixpoint.
const maxBatchDeltas = 2048

// candHeadroom and candFloor set the runaway ceiling on the candidates one
// batch buffers: candHeadroom× the derivation budget, never below
// candFloor. A batch may buffer far more candidates than it admits
// (duplicates and strategy-rejected facts are filtered at admission, and
// are never charged to the budget), so the ceiling is a memory backstop
// for non-terminating programs, not a budget check: tight budgets must not
// fail duplicate-heavy batches.
const (
	candHeadroom = 4
	candFloor    = 1 << 20
)

// Run executes the chase to fixpoint and returns the result. Cancelling
// ctx aborts the loop between delta batches and between the tasks of a
// batch.
func (e *Engine) Run(ctx context.Context, edb []ast.Fact) (*Result, error) {
	// Both loads skip duplicates, so a resumed Run re-feeding them admits
	// only what an earlier crash cut off.
	if err := e.LoadChunk(e.c.Prog.Facts); err != nil {
		return nil, err
	}
	if err := e.LoadChunk(edb); err != nil {
		return nil, err
	}
	for !e.Quiesced() {
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
// array, the task list with its schedules, the captured match log and the
// canonical order — once the fixpoint is reached. All of it is sized by the
// largest batch of the run and nothing reads it between runs, so an engine
// kept for its answer (a vadalog.Result reads through it, a session may wait
// for more facts) keeps the database reachable and not the run's buffers; a
// later Run re-grows them.
func (e *Engine) releaseBatch() {
	clear(e.queues)
	e.tasks, e.perm, e.plans = nil, nil, nil
	e.log = eval.BindingLog{}
}

// step drains one delta batch from the lowest non-empty queue: it schedules
// every (rule, pinned atom, delta) firing of the batch whose rule belongs to
// that queue's stratum as a task, matches the tasks against the
// database as the batch found it, capturing their candidates, then admits
// all candidates in task order. Tasks of rules whose matching mints nulls
// run inline during the admit phase, at their canonical position. New
// facts enqueue for the next batch.
//
// On ANY abnormal exit — cancellation, a captured match error, a
// recovered crash, budget exhaustion or candidate-buffer overflow — the
// whole batch is put back at the head of the queue: a resumed Run
// re-fires it, which is idempotent (duplicates are eliminated, aggregate
// updates retain per-contributor maxima, Skolem minting is memoized), so
// no delta's derivations are ever lost. A crash while matching or a
// candidate-buffer overflow (a runaway batch) strikes before anything of
// the batch is admitted, keeping the database at the previous batch's
// state.
func (e *Engine) step(ctx context.Context) (err error) {
	s := slices.IndexFunc(e.queues, func(q []*core.FactMeta) bool { return len(q) > 0 })
	n := min(len(e.queues[s]), maxBatchDeltas)
	batch := e.queues[s][:n:n]
	e.queues[s] = e.queues[s][n:]
	e.tasks = e.tasks[:0]
	clear(e.cseSeen)
	for _, m := range batch {
		if m.Retracted {
			continue // superseded aggregate intermediate, no longer a fact
		}
		for _, rp := range e.c.byPred[m.Fact.Pred] {
			if e.c.stratum != nil && e.c.stratum[rp[0]] != s {
				continue
			}
			t := task{m: m, ri: int32(rp[0]), pos: int32(rp[1]), g: -1, lead: -1, plan: -1}
			if gid, ok := e.c.groupOf[rp]; ok {
				t.g = int32(gid)
				key := cseSeenKey{m: m, g: gid}
				if li, seen := e.cseSeen[key]; seen {
					t.lead = li
				} else {
					t.lead = int32(len(e.tasks))
					e.cseSeen[key] = t.lead
				}
			}
			e.tasks = append(e.tasks, t)
		}
	}
	if len(e.tasks) == 0 {
		return nil
	}
	// Crash isolation: a panic while planning, matching or admitting — a
	// storage fault mid-admission, say — leaves the store consistent
	// (mutations are per-fact atomic), so requeueing the batch keeps the
	// session resumable and the crash surfaces as a positioned engine error
	// instead of killing the process.
	defer func() {
		if r := recover(); r != nil { //vadalint:panicguard chase batch: requeue the batch and surface a positioned resumable error
			e.queues[s] = append(batch, e.queues[s]...)
			err = &core.PanicError{Engine: "chase", Rule: e.firing, Value: r, Stack: debug.Stack()}
		}
	}()
	e.firing = nil
	e.planBatch()
	tMatch := time.Now()
	err = e.matchBatch(ctx)
	e.phaseMatch += time.Since(tMatch)
	if err == nil {
		tAdmit := time.Now()
		e.orderBatch()
		err = e.admitBatch(ctx)
		e.phaseAdmit += time.Since(tAdmit)
	}
	if err != nil {
		// Whatever interrupted the batch — cancellation, overflow, budget
		// exhaustion, a captured match error, an inconsistency — it is
		// restored wholesale; re-firing an admitted prefix is idempotent.
		e.queues[s] = append(batch, e.queues[s]...)
	}
	return err
}

// planBatch derives (or revalidates) the schedule of every distinct
// firing shape in the batch against the current statistics, presizing
// planned probe indexes. With the planner disabled every task's plan stays
// -1 and every firing runs its static schedule.
func (e *Engine) planBatch() {
	pl := e.Planner()
	if pl == nil {
		return
	}
	clear(e.planSeen)
	clear(e.plans)
	e.plans = e.plans[:0]
	for ti := range e.tasks {
		t := &e.tasks[ti]
		if e.c.Skolem[t.ri] || t.follower(ti) {
			continue // inline firings keep the static schedule; followers share
		}
		key := [2]int{int(t.ri), int(t.pos)}
		cr := e.c.Rules[t.ri]
		if t.lead >= 0 {
			key = [2]int{-1 - int(t.g), int(t.pos)}
			cr = e.c.groups[t.g].body
		}
		pi, ok := e.planSeen[key]
		if !ok {
			plan := pl.PlanFor(cr, int(t.pos))
			for _, pr := range plan.Probes {
				if rel := e.DB().Lookup(pr.Pred); rel != nil {
					rel.EnsureIndexSized(pr.Mask, pr.Keys)
				}
			}
			pi = int32(len(e.plans))
			e.plans = append(e.plans, plan.Steps)
			e.planSeen[key] = pi
		}
		t.plan = pi
	}
}

// matchBatch runs the match phase: every task of the batch is matched, in
// task order, and its candidates captured. Nothing is admitted until the
// phase ends, so every task sees the database as the batch found it. A
// batch that buffers more candidates than the runaway ceiling allows stops
// here with ErrBudget, before any of it is admitted.
func (e *Engine) matchBatch(ctx context.Context) error {
	e.log.Reset()
	e.errTask, e.taskErr = -1, nil
	m := e.Meter()
	e.room = max(candHeadroom*m.Limit(), candFloor) - m.Used()
	for ti := range e.tasks {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.matchTask(ti)
		if e.room < 0 {
			return fmt.Errorf("%w (batch candidate buffer overflow)", ErrBudget)
		}
	}
	e.firing = nil
	return nil
}

// matchTask enumerates the matches of one firing and captures each
// complete binding into the batch's log as the task's range, counting it
// against the batch's candidate room. A group leader enumerates the shared
// body once for all members, so each of its candidates counts once per
// member.
func (e *Engine) matchTask(ti int) {
	t := &e.tasks[ti]
	t.lo = int32(e.log.Len())
	t.hi = t.lo
	if e.c.Skolem[t.ri] {
		return // evaluated inline on the admit path
	}
	if t.follower(ti) {
		return // replays the leader's shared body range at admit
	}
	cr := e.c.Rules[t.ri]
	e.firing = cr.Rule
	var b *eval.Binding
	n := 1
	if t.lead >= 0 {
		cr = e.c.groups[t.g].body
		b = e.gbinding(int(t.g))
		n = len(e.c.groups[t.g].members)
	} else {
		b = e.binding(int(t.ri))
	}
	steps := cr.Schedule(int(t.pos))
	if t.plan >= 0 {
		steps = e.plans[t.plan]
	}
	e.log.Shape(cr)
	err := siteMatch.Check()
	if err != nil {
		rule := e.firing
		err = fmt.Errorf("chase: %d:%d: rule %d: %w", rule.Line, rule.Col, rule.ID, err)
	} else {
		err = e.mt.MatchPinnedSteps(cr, int(t.pos), t.m, steps, b, func(b *eval.Binding) error {
			if e.room -= n; e.room < 0 {
				return errBatchOverflow
			}
			e.log.Capture(b)
			return nil
		})
	}
	t.hi = int32(e.log.Len())
	if err != nil && e.errTask < 0 {
		e.errTask, e.taskErr = int32(ti), err
	}
}

// errBatchOverflow stops a task's enumeration once the batch overran its
// candidate room; matchBatch turns it into ErrBudget, so this sentinel
// never escapes the engine.
var errBatchOverflow = errors.New("chase: batch candidate buffer overflow")

// orderBatch computes every task's canonical admission order into perm:
// the tasks' ranges tile the log in task order, so perm[t.lo:t.hi] is task
// t's range sorted (empty for inline firings and followers, which reuse
// their leader's). It runs between the match phase and the replay.
func (e *Engine) orderBatch() {
	e.perm = e.perm[:0]
	for ti := range e.tasks {
		t := &e.tasks[ti]
		e.perm = e.log.CanonicalOrder(e.perm, int(t.lo), int(t.hi))
	}
}

// admitBatch replays the batch's candidates in canonical (task, match)
// order through the emit path: aggregation state, EGD unification,
// existential instantiation and admission all happen here. Within a task, candidates are admitted in the canonical order of their
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
		ri := int(t.ri)
		cr := e.c.Rules[ri]
		e.firing = cr.Rule // positions a crash recovered by step
		if e.c.Skolem[ri] {
			if err := e.fire(ri, int(t.pos), t.m); err != nil {
				return err
			}
			continue
		}
		src := int32(ti)
		if t.follower(ti) {
			src = t.lead
			e.shared++
		}
		perm := e.perm[e.tasks[src].lo:e.tasks[src].hi]
		b := e.binding(ri)
		if t.g < 0 {
			if _, err := e.Replay(ri, &e.log, perm, b); err != nil {
				return err
			}
		} else {
			// Group member: the range holds the shared body match; replay
			// this rule's private assignments and conditions, then emit.
			replayEmit := func(b *eval.Binding) error { return e.emit(ri, b) }
			for _, i := range perm {
				e.log.Restore(int(i), e.DB().Interner(), b)
				if err := e.mt.Replay(cr, e.c.postSteps[ri], b, replayEmit); err != nil {
					return err
				}
			}
		}
		if src == e.errTask {
			return e.taskErr
		}
	}
	e.firing = nil
	return nil
}

// PlannerStats reports, for diagnostics and tests: how many plans the
// cost-based planner derived and how many were drift-triggered
// recomputations (0, 0 with the planner disabled), and how many firings
// were served from a CSE-shared body enumeration.
func (e *Engine) PlannerStats() (derives, replans, sharedFirings int) {
	if pl := e.Planner(); pl != nil {
		derives, replans = pl.Derives(), pl.Replans()
	}
	return derives, replans, e.shared
}

// PhaseStats reports cumulative wall time spent in the phases of the
// delta-batched loop — match and admission (canonical ordering included) — in the three-value shape the benchmark harness
// reads: there is no pre-pass, so its share is always zero, as on the
// pipeline. The split shows whether a workload is admission-bound.
func (e *Engine) PhaseStats() (match, prepass, admit time.Duration) {
	return e.phaseMatch, 0, e.phaseAdmit
}

// fire applies rule ri with its pos-th body atom pinned to delta fact m,
// matching and emitting fused (the admit-phase path for rules whose
// matching mints nulls).
func (e *Engine) fire(ri, pos int, m *core.FactMeta) error {
	return e.mt.MatchPinned(e.c.Rules[ri], pos, m, e.binding(ri), func(b *eval.Binding) error {
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
