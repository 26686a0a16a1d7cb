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
//
// A pull (Engine.Next) runs batches only until the pulled fact exists: an
// admitted fact is final unless an EGD later unifies its nulls or an
// aggregate rewrites its row in place, and a program with either takes its
// fixpoint before the first answer (Compiled.drainFirst).
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
)

// siteMatch guards the match phase: it fires in matchTask, once per matched
// task, so error terms exercise the captured-error path and panic terms the
// batch requeue of step's crash recovery.
var siteMatch = fault.NewSite("chase.match")

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

	// firings[s][pred] lists, in rule order, the firings a delta of pred
	// schedules in a batch of stratum s: one per positive atom over pred of a
	// rule of that stratum.
	firings []map[string][]firing

	// readers maps each predicate to the strata, ascending, whose firings
	// read it, when the program negates (admit.Compiled.Stratum); nil
	// otherwise, when there is one delta queue.
	readers map[string][]int

	// CSE body sharing (planner enabled only): rules whose positive
	// bodies are identical under canonical slot renaming form a group per
	// pinned position; one shared match-only cursor enumerates the body
	// and tests the conditions all members share per delta, and every
	// member replays its private post-match steps.
	groups    []cseGroup
	groupOf   map[[2]int]int // (rule idx, pinned pos) -> group idx
	postSteps [][]eval.Step  // per rule: assign/cond replay steps (grouped rules)

	// drainFirst makes Next run to the fixpoint before it answers: some
	// rule is an EGD, or rewrites a stored row in place
	// (admit.Compiled.InPlace), so a fact admitted by an early batch can
	// still change.
	drainFirst bool
}

// firing is one (rule, pinned atom) a delta schedules. A firing of a CSE
// group carries the group and lead, the offset in its firings list of the
// group's first firing: for each delta that one leads, matching the shared
// body once, and the others follow, replaying its range.
type firing struct {
	ri, pos int32
	g       int32 // CSE group, -1 when ungrouped
	lead    int32 // offset of the group's first firing, -1 ungrouped
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
	c := &Compiled{Compiled: ac, drainFirst: ac.EGDs || len(ac.InPlace) > 0}
	if !opts.DisablePlanner {
		c.buildCSEGroups()
	}
	c.listFirings()
	return c, nil
}

// listFirings fills firings from the rules, their strata and CSE groups,
// and readers from firings.
func (c *Compiled) listFirings() {
	c.firings = make([]map[string][]firing, c.Strata())
	for s := range c.firings {
		c.firings[s] = make(map[string][]firing)
	}
	for ri, cr := range c.Rules {
		s := 0
		if c.Stratum != nil {
			s = c.Stratum[ri]
		}
		for pi, a := range cr.Pos {
			fs := c.firings[s][a.Pred]
			f := firing{ri: int32(ri), pos: int32(pi), g: -1, lead: -1}
			if g, ok := c.groupOf[[2]int{ri, pi}]; ok {
				f.g = int32(g)
				f.lead = int32(slices.IndexFunc(fs, func(o firing) bool { return o.g == f.g }))
				if f.lead < 0 {
					f.lead = int32(len(fs))
				}
			}
			c.firings[s][a.Pred] = append(fs, f)
		}
	}
	if c.Stratum == nil {
		return
	}
	c.readers = make(map[string][]int)
	for s, fs := range c.firings {
		//vadalint:ordered keyed effects only: each predicate's list grows in stratum order
		for pred := range fs {
			c.readers[pred] = append(c.readers[pred], s)
		}
	}
}

// buildCSEGroups clusters (rule, pinned pos) firings whose positive
// bodies coincide under canonical slot renaming. Each cluster with at
// least two members gets a shared match-only body rule that also tests the
// conditions all of them test on the body alone (eval.SharedConds); its
// members get their private post-match replay steps, without those.
// Grouped firings enumerate the body and test the shared conditions once
// per delta instead of once per rule — the common-subexpression
// elimination of the paper's execution optimizer.
func (c *Compiled) buildCSEGroups() {
	c.groupOf = make(map[[2]int]int)
	c.postSteps = make([][]eval.Step, len(c.Rules))
	bySig := make(map[string][]int)
	var order []string // deterministic group numbering (source order)
	for ri, cr := range c.Rules {
		sig, ok := cr.BodySignature()
		if !ok || c.Skolem[ri] {
			continue
		}
		if bySig[sig] == nil {
			order = append(order, sig)
		}
		bySig[sig] = append(bySig[sig], ri)
	}
	for _, sig := range order {
		rules := bySig[sig]
		if len(rules) < 2 {
			continue
		}
		crs := make([]*eval.CompiledRule, len(rules))
		for i, ri := range rules {
			crs[i] = c.Rules[ri]
		}
		shared := eval.SharedConds(crs)
		for i, ri := range rules {
			c.postSteps[ri] = crs[i].PostMatchSteps(shared)
		}
		for pi := range crs[0].Pos {
			gid := len(c.groups)
			members := make([][2]int, len(rules))
			for i, ri := range rules {
				members[i] = [2]int{ri, pi}
				c.groupOf[members[i]] = gid
			}
			c.groups = append(c.groups, cseGroup{body: crs[0].BodyMatcher(shared), pos: pi, members: members})
		}
	}
}

// Engine is the per-run state of a single reasoning session over a
// shared Compiled artifact. Engines are cheap to create and are for use
// by a single goroutine; share the Compiled, not the Engine.
type Engine struct {
	// Core owns the database, termination policy, meter, bindings and
	// aggregate state and decides everything a firing does; the engine's
	// part of admission is enqueue, the hook it hands the core.
	*admit.Core
	c *Compiled

	// gbindings holds one reusable Binding per CSE group body, made on its
	// first firing (see gbinding).
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
	// task t's. All of it grows amortized over the run.
	tasks  []task
	log    eval.BindingLog
	perm   []int32
	shared int // follower firings served from a shared body range

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
// to delta fact m. A firing of a CSE group has lead set to the index of
// the group's leader task for this delta: the leader enumerates the shared
// body once, followers replay from its range of the log. A batch holds a
// task per firing of every delta it drains, so the struct is kept small.
type task struct {
	m *core.FactMeta
	firing
	// lo and hi delimit the entries of the batch's log the task captured.
	lo, hi int32
}

// follower reports whether task ti, t, replays its group leader's range
// instead of matching.
func (t *task) follower(ti int) bool { return t.lead >= 0 && int(t.lead) != ti }

// NewEngine derives fresh run-time state (database, interner, strategy,
// queues) over the shared compiled artifact; bindings are made on their
// first firing.
func (c *Compiled) NewEngine() *Engine {
	e := &Engine{c: c, queues: make([][]*core.FactMeta, len(c.firings))}
	e.Core = c.NewCore(e.enqueue)
	e.gbindings = make([]*eval.Binding, len(c.groups))
	return e
}

// gbinding returns CSE group g's shared-body binding, making it on the
// group's first firing (admit.Core.Binding makes a rule's).
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

// LoadChunk admits one chunk of EDB facts through the core's load path
// (admit.Core.LoadChunk), without a context: the benchmark harness's entry
// point. Loaded facts queue as deltas for the next batch drain.
func (e *Engine) LoadChunk(facts []ast.Fact) error {
	return e.Core.LoadChunk(context.TODO(), facts)
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

// Run loads the program's facts and edb, runs the chase to its fixpoint
// (Drain) and returns the result. Both loads skip duplicates, so a resumed
// Run re-feeding them admits only what an earlier crash cut off.
func (e *Engine) Run(ctx context.Context, edb []ast.Fact) (*Result, error) {
	err := e.LoadProgramFacts()
	if err == nil {
		err = e.Core.LoadChunk(ctx, edb)
	}
	if err == nil {
		err = e.Drain(ctx)
	}
	if err != nil {
		return nil, err
	}
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

// Drain takes all the input the core's Feeder has left and runs the chase
// to its fixpoint. Cancelling ctx aborts the loop between delta batches and
// between the tasks of a batch.
func (e *Engine) Drain(ctx context.Context) error {
	if err := e.FeedAll(ctx); err != nil {
		return err
	}
	for !e.Quiesced() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := e.step(ctx); err != nil {
			return err
		}
	}
	e.releaseBatch()
	return nil
}

// Next returns pred's n-th live fact, with the EGD null substitution
// resolved (admit.Core.LiveFact). It takes all the input there is, then
// runs delta batches, the same ones in the same order as Drain, only until
// pred has n+1 live facts or the chase has reached its fixpoint: the first
// answer costs the batches up to the one that admits it. A batch admits
// facts that no later batch changes — a lower stratum is complete before a
// higher one fires — except where an EGD unifies nulls or an aggregate
// rewrites its row in place; a program with either (Compiled.drainFirst)
// runs to its fixpoint before it answers. A constraint that a later batch
// would violate fails only the pull that runs that batch.
func (e *Engine) Next(ctx context.Context, pred string, n int) (ast.Fact, bool, error) {
	var err error
	if e.c.drainFirst {
		err = e.Drain(ctx)
	} else {
		err = e.FeedAll(ctx)
	}
	for err == nil {
		if rel := e.DB().Lookup(pred); rel != nil && rel.Live() > n {
			return e.LiveFact(rel, n), true, nil
		}
		if e.Quiesced() {
			e.releaseBatch()
			return ast.Fact{}, false, nil
		}
		if err = ctx.Err(); err == nil {
			err = e.step(ctx)
		}
	}
	return ast.Fact{}, false, err
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
	e.tasks, e.perm = nil, nil
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
	// Count the batch's tasks first and grow the list once: releaseBatch
	// drops it at every fixpoint, and growing it by append is a large share
	// of a run's allocated bytes.
	tasks := 0
	for _, m := range batch {
		if !m.Retracted {
			tasks += len(e.c.firings[s][m.Fact.Pred])
		}
	}
	e.tasks = slices.Grow(e.tasks[:0], tasks)
	for _, m := range batch {
		if m.Retracted {
			continue // superseded aggregate intermediate, no longer a fact
		}
		base := int32(len(e.tasks))
		for _, f := range e.c.firings[s][m.Fact.Pred] {
			if f.lead >= 0 {
				f.lead += base
			}
			e.tasks = append(e.tasks, task{m: m, firing: f})
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
			return fmt.Errorf("%w (batch candidate buffer overflow)", admit.ErrBudget)
		}
	}
	e.firing = nil
	return nil
}

// matchTask enumerates the matches of one firing and captures each
// complete binding into the batch's log as the task's range, counting it
// against the batch's candidate room. A group leader enumerates the shared
// body once for the members of its group that this delta fires, and each
// of them replays the leader's range: a follower counts that range again.
// A group can span strata, so only the followers in the batch count.
func (e *Engine) matchTask(ti int) {
	t := &e.tasks[ti]
	t.lo = int32(e.log.Len())
	t.hi = t.lo
	if e.c.Skolem[t.ri] {
		return // evaluated inline on the admit path
	}
	if t.follower(ti) {
		lead := &e.tasks[t.lead] // replays its range at admit
		e.room -= int(lead.hi - lead.lo)
		return
	}
	ri := int(t.ri)
	cr := e.c.Rules[ri]
	e.firing = cr.Rule
	var b *eval.Binding
	if t.g >= 0 {
		cr = e.c.groups[t.g].body
		b = e.gbinding(int(t.g))
	} else {
		b = e.Binding(ri)
	}
	e.log.Shape(cr)
	err := siteMatch.Check()
	if err != nil {
		rule := e.firing
		err = fmt.Errorf("chase: %d:%d: rule %d: %w", rule.Line, rule.Col, rule.ID, err)
	} else {
		err = e.Match(ri, cr, int(t.pos), t.m, b, func(b *eval.Binding) error {
			e.room--
			if e.room < 0 {
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
		e.firing = e.c.Rules[ri].Rule // positions a crash recovered by step
		if e.c.Skolem[ri] {
			if _, err := e.Fire(ri, int(t.pos), t.m, e.Binding(ri)); err != nil {
				return err
			}
			continue
		}
		src := int32(ti)
		if t.follower(ti) {
			src = t.lead
			e.shared++
		}
		// A group member's range holds the shared body match: it replays
		// its private assignments and conditions before emitting.
		var post []eval.Step
		if t.g >= 0 {
			post = e.c.postSteps[ri]
		}
		perm := e.perm[e.tasks[src].lo:e.tasks[src].hi]
		if _, err := e.Replay(ri, &e.log, perm, e.Binding(ri), post); err != nil {
			return err
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

// Run is the convenience one-shot entry point.
func Run(ctx context.Context, prog *ast.Program, edb []ast.Fact, opts Options) (*Result, error) {
	e, err := New(prog, opts)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, edb)
}
