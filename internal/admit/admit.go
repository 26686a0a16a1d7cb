// Package admit is the firing step both evaluators share. The breadth-first
// chase of internal/chase and the pipe-and-filters engine of
// internal/pipeline differ only in when they fire a rule on a delta — BFS
// delta batches there, pulls and sweeps here; what a firing does is decided
// once, in Core: its binding (Binding, made on the rule's first firing), its
// schedule (Steps: the static one for Skolem rules and with the planner off,
// the cost-based planner's otherwise, with the plan's probe indexes presized
// once per derived plan), its admission path (Fire matches and emits fused,
// Replay admits captured matches in canonical order) and its explanation
// (Explain). Every complete match then passes through one
// termination-strategy wrapper (Algorithm 1 of the paper) before it is
// stored: constraint and EGD enforcement, monotonic aggregation with
// supersession, existential instantiation, the duplicate check, the
// termination check, budget metering, storage and tag-twin mirroring live
// here, once.
//
// Compiled is the compile-time half, and the one place the program facts
// both engines schedule by are decided: the rewrite, the warded analysis,
// each rule's negation stratum (Stratum), the predicates admission rewrites
// in place (InPlace), the per-rule plans, the static schedules of the rules
// that run one and the access plan (Plan). Core is
// the per-run half (database, policy, meter, join planner, bindings,
// aggregate state, and the run's input: the Feeder and the one guarded load
// path, LoadProgramFacts, LoadChunk and LoadRows). An engine hands NewCore
// one hook, called with every fact that was stored or replaced in place, and
// schedules from it: the chase appends to its delta queue, the pipeline
// wakes its buffers. The core never learns which engine drives it.
package admit

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"

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

// ErrInconsistent is returned (wrapped) when a negative constraint fires
// or an EGD equates two distinct constants. Package vadalog exports it
// under the same name, hence the text.
var ErrInconsistent = errors.New("vadalog: knowledge base is inconsistent")

// ErrBudget is returned (wrapped) when the derivation budget is exhausted;
// with the termination strategy enabled this indicates a genuinely
// enormous answer, with it disabled it is the expected outcome on
// non-terminating programs. A refused step has mutated nothing, so raising
// the budget (SetBudget) and re-firing the delta resumes the run.
var ErrBudget = errors.New("vadalog: derivation budget exceeded")

// ErrArity is returned (wrapped) when a loaded row's width differs from
// its predicate's arity: the compiled program's, or for a predicate the
// program does not mention, that of the relation an earlier load created.
// The row is not stored, so every later load of it is refused again.
var ErrArity = errors.New("vadalog: fact does not have its predicate's arity")

// siteLoad guards the load path of both engines: it fires at the head of
// every chunk (LoadProgramFacts, LoadChunk, LoadRows), before anything of
// it is admitted, so an injected failure drops nothing the core accepted.
var siteLoad = fault.NewSite("admit.load")

// DefaultBudget caps admitted facts when Config.MaxDerivations is unset.
const DefaultBudget = 10_000_000

// Config is the one option set of both engines (chase.Options and
// pipeline.Options are aliases of it): what compilation, admission and join
// planning need to know. The zero value is the production configuration.
type Config struct {
	// MaxDerivations caps admitted facts (0 = 10_000_000).
	MaxDerivations int
	// NewPolicy overrides the termination policy (nil = the full strategy
	// of Algorithm 1). Baselines live in internal/baseline.
	NewPolicy func(*analysis.Result) core.Policy
	// DisablePlanner turns off the cost-based join planner (and with it the
	// chase's common-subexpression body sharing): every firing runs the
	// static bound-count schedule compiled into its rule. Candidates are
	// admitted in canonical order either way, so the database is
	// byte-identical with the planner on or off; the planner-off run is the
	// reference of the digest tests and of BenchmarkAblation_SkewJoin.
	DisablePlanner bool
	// PhaseTiming switches on the pipeline's per-firing clocks behind its
	// Session.PhaseStats. The chase times its batches whatever it says.
	PhaseTiming bool
}

// Compiled is the immutable compile-time artifact both engines build
// their scheduling structures over: the rewritten program, its warded
// analysis and the per-rule executable plans. Safe for concurrent use.
type Compiled struct {
	cfg Config

	Prog  *ast.Program // rewritten program actually executed
	Res   *analysis.Result
	RW    *rewrite.Result
	Preds map[string]int // predicate -> arity
	Rules []*eval.CompiledRule
	// Skolem marks rules whose body assignments mint nulls while matching:
	// their enumeration order is part of the result, so both engines match
	// them fused with admission, on the static schedule.
	Skolem []bool
	// static holds, per rule and pinned atom, the static schedule
	// (eval.CompiledRule.ScheduleFor with no order) of the rules that run
	// one: Skolem rules, and every rule under Config.DisablePlanner. nil for
	// a rule the planner schedules.
	static [][][]eval.Step
	// Stratum is each rule's stratum when some rule negates: its head's
	// (analysis.Condensation, tag twins derived from their predicates); a
	// constraint or EGD takes the least stratum above everything it reads, a
	// negated atom counting one more than its predicate. Both engines fire a
	// rule of stratum s only once every rule below s has reached its
	// fixpoint. nil means one stratum: no rule negates.
	Stratum []int
	// InPlace holds the predicates whose stored rows admission rewrites in
	// place: the heads of the aggregate rules that supersede (supersedes)
	// and their tag twins. A row of one can change after a rule has read it.
	InPlace map[string]bool
	// EGDs reports whether some rule is an equality-generating dependency:
	// a null of a stored row can then be unified later, so a fact read
	// before the fixpoint may not be final (see LiveFact).
	EGDs bool
	// strata counts the rule strata: one more than the largest Stratum.
	strata int

	postAgg [][]eval.CCond // per rule: conditions reading the aggregate result
	// reachesNeg holds the predicates of Prog with a dependency path to a
	// negated predicate (analysis.Condensation.ReachesNegation); nil when
	// no rule negates.
	reachesNeg map[string]bool
}

// Compile runs rewriting, wardedness analysis and rule compilation on
// prog. The analysis is the one rewrite.Apply hands on.
func Compile(prog *ast.Program, cfg Config) (*Compiled, error) {
	rw, err := rewrite.Apply(prog, rewrite.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res := rw.Analysis
	// Parse does not reject arity drift (the lint layer reports it as
	// A001); Predicates does.
	preds, err := rw.Program.Predicates()
	if err != nil {
		return nil, err
	}
	if cfg.MaxDerivations <= 0 {
		cfg.MaxDerivations = DefaultBudget
	}
	p := &Compiled{cfg: cfg, Prog: rw.Program, Res: res, RW: rw, Preds: preds, InPlace: make(map[string]bool), strata: 1}
	negates := false
	for i, r := range rw.Program.Rules {
		cr, err := eval.Compile(r, res.Rules[i])
		if err != nil {
			return nil, err
		}
		if len(cr.Pos) == 0 {
			return nil, fmt.Errorf("admit: rule %d has no positive body atom: %s", r.ID, r.String())
		}
		var pa []eval.CCond
		if cr.Agg != nil {
			for _, cond := range cr.Conds {
				for _, d := range cond.Deps {
					if d == cr.Agg.ResultSlot {
						pa = append(pa, cond)
						break
					}
				}
			}
		}
		skolem := false
		for _, asg := range cr.Assigns {
			skolem = skolem || asg.IsSkolem
		}
		var static [][]eval.Step
		if skolem || cfg.DisablePlanner {
			static = make([][]eval.Step, len(cr.Pos))
			for pos := range cr.Pos {
				static[pos] = cr.ScheduleFor(pos, nil)
			}
		}
		negates = negates || len(cr.Neg) > 0
		p.EGDs = p.EGDs || r.EGD != nil
		if supersedes(cr) {
			for _, h := range r.Heads {
				p.InPlace[h.Pred] = true
				if twin, ok := rw.TagPreds[h.Pred]; ok {
					p.InPlace[twin] = true
				}
			}
		}
		p.Rules = append(p.Rules, cr)
		p.postAgg = append(p.postAgg, pa)
		p.Skolem = append(p.Skolem, skolem)
		p.static = append(p.static, static)
	}
	// Only a program that negates pays for the condensation. Negation
	// through recursion has no stratified model to compute.
	if negates {
		g := analysis.Condense(rw.Program, rw.TagPreds)
		if err := g.Err(); err != nil {
			return nil, fmt.Errorf("admit: %w", err)
		}
		p.reachesNeg = g.ReachesNegation()
		p.stratify(g.Strata())
	}
	return p, nil
}

// stratify fills Stratum and strata from the predicates' strata.
func (p *Compiled) stratify(strata map[string]int) {
	p.Stratum = make([]int, len(p.Rules))
	for i, cr := range p.Rules {
		r := cr.Rule
		if len(r.Heads) > 0 {
			p.Stratum[i] = strata[r.Heads[0].Pred]
		} else {
			for _, a := range r.Body {
				s := strata[a.Pred]
				if a.Negated {
					s++
				}
				p.Stratum[i] = max(p.Stratum[i], s)
			}
		}
		p.strata = max(p.strata, p.Stratum[i]+1)
	}
}

// supersedes reports whether rule cr's head facts improve in place: an
// aggregate rule without existentials. An existential aggregate head mints
// a null per binding, so each binding is its own fact, not an improvement
// of the previous one.
func supersedes(cr *eval.CompiledRule) bool { return cr.Agg != nil && len(cr.Exists) == 0 }

// Config returns the options p was compiled with, MaxDerivations resolved.
func (p *Compiled) Config() Config { return p.cfg }

// Strata reports how many rule strata the program has: one when no rule
// negates.
func (p *Compiled) Strata() int { return p.strata }

// Plan renders the compiled reasoning access plan (paper Sec. 4, step 2:
// the logic compiler's pipeline of filters and pipes): one line per filter
// with its generating-rule kind and termination-wrapper role, and the
// pipes from the predicates it reads to the predicate it feeds. The plan
// is a compile-time artifact, the same for both engines: it exists before
// any run.
func (p *Compiled) Plan() string { return planner.RenderPlan(p.Prog, p.Preds, p.Rules, nil) }

// Core is the per-run admission state over a shared Compiled: it owns the
// database, the termination policy, the null substitution, the derivation
// meter, the join planner and the per-rule aggregate state, and is the only
// code that mutates them. For use by a single goroutine.
type Core struct {
	p     *Compiled
	db    *storage.Database
	strat core.Policy
	subst *eval.NullSubst
	meter *core.Meter
	pl    *planner.Planner // nil under Config.DisablePlanner
	mt    eval.Matcher
	aggs  []*eval.AggState
	// bindings holds one reusable Binding per rule, made on the rule's first
	// firing: a program with many rules that never fire pays nothing for
	// them.
	bindings []*eval.Binding
	// matches counts the complete matches handed to Emit by Fire and Replay.
	matches int
	// headRels caches, per rule and head, the relation emitHeads admits
	// into: resolved by name on the first emission, never dropped after.
	headRels [][]*storage.Relation

	// onAdmit is the engine's one hook: m was stored, or replaced in place.
	onAdmit func(m *core.FactMeta)
	// feed is the run's input (SetFeeder); nil for a core loaded through
	// LoadChunk/LoadRows alone.
	feed Feeder

	// groupBuf/contribBuf/rowBuf/parentsBuf are reused across emissions so
	// Emit allocates nothing for a match whose heads are all stored already
	// (AggState keys copy what they keep; a fact's Args are decoded on
	// admission only).
	groupBuf   []term.Value
	contribBuf []term.Value
	rowBuf     []uint32
	parentsBuf []*core.FactMeta

	// args holds the Args of every derived fact the run stores, but those of
	// aggregate heads: a survivor of the duplicate check is decoded into it
	// and a fact the policy rejects gives its Args back (core.Policy retains
	// nothing of it). An aggregate head's Args stay on the heap, so that a
	// superseded value is freed.
	args core.Arena[term.Value]

	// twinBuf is the tag-twin row scratch, keyBuf twinKey's; twinKeys maps
	// a labelled null's interned ID to the interned ID of its tag-twin key
	// (0: not yet rendered).
	twinBuf  []uint32
	keyBuf   []byte
	twinKeys []uint32
}

// NewCore derives fresh run-time state over p — database, policy, meter,
// join planner, aggregate state. onAdmit is called, on the admitting
// goroutine, with every fact stored or replaced in place.
func (p *Compiled) NewCore(onAdmit func(m *core.FactMeta)) *Core {
	c := &Core{
		p:       p,
		db:      storage.NewDatabase(),
		subst:   eval.NewNullSubst(),
		meter:   core.NewMeter(p.cfg.MaxDerivations),
		onAdmit: onAdmit,
	}
	if p.cfg.NewPolicy != nil {
		c.strat = p.cfg.NewPolicy(p.Res)
	} else {
		c.strat = core.NewStrategy(p.Res)
	}
	if !p.cfg.DisablePlanner {
		c.pl = planner.New(planner.LiveCatalog{DB: c.db, Meter: c.meter})
	}
	c.mt.DB = c.db
	c.bindings = make([]*eval.Binding, len(p.Rules))
	nHeads := 0
	for _, cr := range p.Rules {
		nHeads += len(cr.Heads)
	}
	rels := make([]*storage.Relation, nHeads) // one block, cut per rule
	c.headRels = make([][]*storage.Relation, len(p.Rules))
	for ri, cr := range p.Rules {
		var st *eval.AggState
		if cr.Agg != nil {
			st = cr.Agg.NewState(c.db.Interner())
		}
		c.aggs = append(c.aggs, st)
		c.headRels[ri], rels = rels[:len(cr.Heads):len(cr.Heads)], rels[len(cr.Heads):]
	}
	return c
}

// DB exposes the run's database (record-manager loads, diagnostics).
func (c *Core) DB() *storage.Database { return c.db }

// Strategy exposes the termination policy for its statistics.
func (c *Core) Strategy() core.Policy { return c.strat }

// Planner exposes the run's cost-based join planner, which derives
// schedules from the live statistics of DB; nil under Config.DisablePlanner,
// when every firing runs its rule's static schedule.
func (c *Core) Planner() *planner.Planner { return c.pl }

// ReachesNegation reports whether pred has a dependency path to a negated
// predicate of the compiled program: a fact of it arriving after a
// negation was settled can falsify what the negation derived.
func (c *Core) ReachesNegation(pred string) bool { return c.p.reachesNeg[pred] }

// Binding returns rule ri's binding, making it on the rule's first firing.
func (c *Core) Binding(ri int) *eval.Binding {
	if c.bindings[ri] == nil {
		c.bindings[ri] = eval.NewBinding(c.p.Rules[ri])
	}
	return c.bindings[ri]
}

// Matches reports how many complete matches Fire and Replay handed to Emit.
func (c *Core) Matches() int { return c.matches }

// CondsTested reports how many conditions the firings' schedules tested
// (eval.Matcher.CondsTested): a CSE group body's once per enumerated match,
// a member's private ones once per replayed match.
func (c *Core) CondsTested() int64 { return c.mt.CondsTested() }

// Subst exposes the EGD null substitution.
func (c *Core) Subst() *eval.NullSubst { return c.subst }

// Meter exposes the derivation meter (budget usage).
func (c *Core) Meter() *core.Meter { return c.meter }

// Derivations reports admitted (inserted or superseded-in-place) facts so
// far, EDB included.
func (c *Core) Derivations() int { return c.meter.Used() }

// SetBudget replaces the derivation budget for subsequent admissions —
// how a run resumes after an ErrBudget partial result. Only safe between
// drive calls.
func (c *Core) SetBudget(n int) { c.meter.SetLimit(n) }

// Output returns pred's facts with the program's @post directives applied
// (certain-answer filtering, ordering, limit, keepMax/keepMin) and the EGD
// null substitution resolved, in canonical order (eval.ApplyPost;
// orderBy ties fall back to it), against the current database — readable
// mid-run, which is what a partial result reports.
func (c *Core) Output(pred string) []ast.Fact {
	return eval.ApplyPost(c.db.FactsOf(pred), c.p.Prog.Posts, pred, c.subst)
}

// LiveFact returns rel's n-th live fact (storage.Relation.LiveAt; the
// caller has checked rel.Live() > n) with the EGD null substitution
// resolved, as Output resolves it: what both engines' Next yield. A ground
// fact, and any fact while no equation is recorded, is the stored fact
// itself, and allocates nothing.
func (c *Core) LiveFact(rel *storage.Relation, n int) ast.Fact {
	f := rel.LiveAt(n).Fact
	if c.subst.Empty() || f.IsGround() {
		return f
	}
	args := make([]term.Value, len(f.Args))
	for i, v := range f.Args {
		args[i] = c.subst.Resolve(v)
	}
	return ast.Fact{Pred: f.Pred, Args: args}
}

// exhausted reports whether the budget has no room for another chase step.
// Steps ask before they touch anything — the termination strategy records
// the facts it lets through and an aggregate row is rewritten in place, so
// a step refused half-way could not be re-fired — and charge once they are
// certain to store. Admission is serial, so ask-then-charge cannot race.
func (c *Core) exhausted() bool { return c.meter.Used() >= c.meter.Limit() }

func (c *Core) errBudget() error {
	return fmt.Errorf("%w (%d facts)", ErrBudget, c.meter.Used())
}

// LoadRow is the one EDB admission primitive, for record-manager rows and
// program or session facts alike (storage.Database.InsertEDB: intern once,
// probe in ID space, metadata for a survivor only), and the one place a
// row's width is checked: a row of another arity than its predicate's is
// refused with ErrArity and nothing of it is stored. Duplicates are skipped,
// so re-feeding after an interrupted load is idempotent. EDB facts are not
// subject to the budget: they charge the meter unconditionally. The fact
// retains args.
func (c *Core) LoadRow(pred string, args []term.Value) error {
	arity, ok := c.p.Preds[pred]
	if !ok {
		arity = len(args)
		if rel := c.db.Lookup(pred); rel != nil {
			arity = rel.Arity()
		}
	}
	if len(args) != arity {
		return fmt.Errorf("%w: %s has arity %d, not %d", ErrArity, pred, arity, len(args))
	}
	if m := c.db.InsertEDB(pred, args, c.strat); m != nil {
		c.meter.Charge()
		c.stored(m)
	}
	return nil
}

// Feeder loads one more chunk of a run's input into the core — the sources
// of the paper's pull stream, as one function: the program's facts, a bound
// record manager's next cursor chunk, the next staged facts — and reports
// whether anything was left to load. A step that fails has lost nothing:
// calling again resumes at the same row. Whoever owns the input (package
// vadalog's Session) supplies it (SetFeeder); the engines step it through
// Feed and FeedAll.
type Feeder func(ctx context.Context) (more bool, err error)

// SetFeeder hands the core the source of its run's input. Set it once,
// before the first drive.
func (c *Core) SetFeeder(f Feeder) { c.feed = f }

// Feed loads one more chunk of the input through the Feeder and reports
// whether there was one: the pipeline calls it when a pull comes back dry.
func (c *Core) Feed(ctx context.Context) (more bool, err error) {
	if c.feed == nil {
		return false, nil
	}
	return c.feed(ctx)
}

// FeedAll steps the Feeder until the input is exhausted or a step fails:
// the chase before its fixpoint, the pipeline before it settles a
// negation, a session's batch drive before it drains.
func (c *Core) FeedAll(ctx context.Context) error {
	for {
		more, err := c.Feed(ctx)
		if err != nil || !more {
			return err
		}
	}
}

// LoadProgramFacts admits the compiled program's inline facts, the first
// chunk of every run's input. Like every load it skips duplicates.
func (c *Core) LoadProgramFacts() error {
	return c.load(context.TODO(), func() error { return c.loadFacts(c.p.Prog.Facts) })
}

// LoadChunk admits one chunk of EDB facts through LoadRow and then reports
// any pending cancellation. The chunk is always admitted before the context
// is consulted, so a chunk already pulled from a cursor is never dropped
// (the caller stops before pulling the next one). Loading after an engine
// has quiesced resumes it: new facts can enable new derivations.
func (c *Core) LoadChunk(ctx context.Context, facts []ast.Fact) error {
	return c.load(ctx, func() error { return c.loadFacts(facts) })
}

// LoadRows is LoadChunk for one chunk of a record manager's cursor: rows
// are admitted as facts of pred without being staged as facts first.
func (c *Core) LoadRows(ctx context.Context, pred string, rows [][]term.Value) error {
	return c.load(ctx, func() error {
		for _, row := range rows {
			if err := c.LoadRow(pred, row); err != nil {
				return err
			}
		}
		return nil
	})
}

// loadFacts admits facts through LoadRow in order, stopping at the first
// refused one (ErrArity): the facts before it stay admitted.
func (c *Core) loadFacts(facts []ast.Fact) error {
	for _, f := range facts {
		if err := c.LoadRow(f.Pred, f.Args); err != nil {
			return err
		}
	}
	return nil
}

// load runs one chunk's admission behind the load fault site and the load
// path's crash isolation, then reports ctx's state. A panic (a storage
// fault mid-chunk) becomes a *core.PanicError labelled "load", with the
// already-admitted prefix intact: loading skips duplicates, so re-feeding
// the same chunk resumes exactly where the crash struck.
func (c *Core) load(ctx context.Context, admit func() error) (err error) {
	defer func() {
		if r := recover(); r != nil { //vadalint:panicguard load-path crash isolation: convert storage faults into typed resumable errors
			err = &core.PanicError{Engine: "load", Value: r, Stack: debug.Stack()}
		}
	}()
	if err := siteLoad.Check(); err != nil {
		return fmt.Errorf("admit: load: %w", err)
	}
	if err := admit(); err != nil {
		return err
	}
	return ctx.Err()
}

// Emit runs one complete binding b of rule ri through fact production:
// constraints and EGDs are enforced, aggregates updated (non-improving
// matches of SkipSafe rules stop here), post-aggregate conditions tested,
// existentials instantiated, and every head fact admitted — superseding
// the group's previous fact for aggregate heads. It returns how many facts
// were stored or replaced.
//
// An improved aggregate value stays unsettled until its emission completes:
// when a step is refused (ErrBudget) or crashes, the re-fired delta sees
// the improvement again instead of skipping an emission that never
// happened.
func (c *Core) Emit(ri int, b *eval.Binding) (int, error) {
	cr := c.p.Rules[ri]
	rule := cr.Rule
	switch {
	case rule.IsConstraint:
		return 0, fmt.Errorf("%w: constraint fired: %s", ErrInconsistent, rule.String())
	case rule.EGD != nil:
		l := b.Val(cr.VarSlot[rule.EGD.Left])
		r := b.Val(cr.VarSlot[rule.EGD.Right])
		if err := c.subst.Unify(l, r); err != nil {
			return 0, fmt.Errorf("%w: %v (egd %s)", ErrInconsistent, err, rule.String())
		}
		return 0, nil
	}
	if cr.Agg == nil {
		return c.emitHeads(ri, cr, b)
	}
	group := c.groupBuf[:0]
	for _, s := range cr.Agg.GroupSlots {
		group = append(group, b.Val(s))
	}
	c.groupBuf = group
	contrib := c.contribBuf[:0]
	for _, s := range cr.Agg.ContribSlots {
		contrib = append(contrib, b.Val(s))
	}
	c.contribBuf = contrib
	x, err := cr.Agg.Contribution(b)
	if err != nil {
		return 0, err
	}
	st := c.aggs[ri]
	agg, improved, err := st.Update(group, contrib, x)
	if err != nil {
		return 0, err
	}
	if !improved && cr.Agg.SkipSafe {
		// The group's aggregate did not change and the post-aggregate
		// conditions depend only on (result, group): this match evaluates
		// exactly like the one that already emitted. Unsafe rules
		// (conditions over other body variables, existential heads) take
		// the full path; supersession makes re-emission idempotent.
		return 0, nil
	}
	b.Set(cr.Agg.ResultSlot, agg)
	st.Unsettle()
	n, err := c.emitHeads(ri, cr, b)
	if err == nil {
		st.Settle()
	}
	return n, err
}

// emitHeads is Emit past the aggregate update: post-aggregate conditions,
// existential instantiation, then per head the interned row and its
// admission. No fact is materialized here — only admit does that, for a
// candidate that survived the duplicate check.
func (c *Core) emitHeads(ri int, cr *eval.CompiledRule, b *eval.Binding) (int, error) {
	for i := range c.p.postAgg[ri] {
		ok, err := c.p.postAgg[ri][i].Holds(b)
		if err != nil || !ok {
			return 0, err
		}
	}
	c.mt.InstantiateExistentials(cr, b)
	parents := eval.WardFirstParentsAppend(cr, b, c.parentsBuf[:0])
	c.parentsBuf = parents
	supersede := supersedes(cr)
	admitted := 0
	for hi := range cr.Heads {
		row, miss, err := b.AppendHeadRow(c.rowBuf[:0], cr, hi, c.subst)
		c.rowBuf = row
		if err != nil {
			return admitted, err
		}
		rel := c.headRels[ri][hi]
		if rel == nil {
			rel = c.db.Rel(cr.Heads[hi].Pred, len(row))
			c.headRels[ri][hi] = rel
		}
		var n int
		if supersede {
			n, err = c.admitAggregate(c.aggs[ri], hi, rel, row, miss, cr.Rule.ID, parents)
		} else {
			n, err = c.admit(rel, row, storage.HashRow(row), miss, cr.Rule.ID, parents, false)
		}
		admitted += n
		if err != nil {
			return admitted, err
		}
	}
	return admitted, nil
}

// admit is the one probe → derive → insert sequence every derived fact
// passes through, whichever scheduler found it: the set-semantics duplicate
// check in ID space, then — for a survivor only — the fact itself, the
// termination strategy, storage and the engine's hook. row is the
// candidate's interned tuple (its head's arity, which is its relation's)
// and h its HashRow; a non-nil miss carries values the interner has never
// seen (see eval.AppendHeadRow), so the fact is stored nowhere and there is
// nothing to probe. The fact's Args come from the run's arena, from the heap
// for an aggregate head (heap). It returns 1 when the fact was stored, 0
// when it was rejected.
func (c *Core) admit(rel *storage.Relation, row []uint32, h uint64, miss []term.Value, ruleID int, parents []*core.FactMeta, heap bool) (int, error) {
	if miss == nil && rel.ContainsRowHash(row, h) {
		return 0, nil
	}
	if c.exhausted() {
		return 0, c.errBudget()
	}
	var args []term.Value
	if heap {
		args = make([]term.Value, len(row))
	} else {
		args = c.args.Alloc(len(row))
	}
	m := c.strat.Derive(eval.RowFact(rel.Name(), args, row, c.db.Interner(), miss), ruleID, parents)
	if !c.strat.CheckTermination(m) {
		c.args.Free(args)
		return 0, nil
	}
	c.meter.Charge()
	if miss != nil {
		// Intern the values no stored fact held, in argument order — the
		// IDs interning the whole fact would give — and hash the full row.
		in := c.db.Interner()
		for i, id := range row {
			if id == 0 {
				row[i] = in.Intern(m.Fact.Args[i])
			}
		}
		h = storage.HashRow(row)
	}
	rel.InsertPrepared(m, row, h)
	c.stored(m)
	return 1, nil
}

// stored reports a freshly inserted fact to the engine and mirrors it into
// its tag twin.
func (c *Core) stored(m *core.FactMeta) {
	c.onAdmit(m)
	c.insertTagTwin(m)
}

// admitAggregate admits an aggregate-head row with supersession: when the
// rule has previously admitted a fact for the current group (and this head
// index), the improved fact replaces it in place — same FactMeta, same
// forest roots and provenance — instead of accumulating next to the
// superseded intermediate. Replacements count against the derivation
// budget (they are chase steps) and are reported to the engine so dependent
// rules observe the improved value. A supersession step needs budget in
// hand before it touches the row: a refusal leaves storage, the policy's
// memory and the tag twin exactly as they were. The replacing fact is
// materialized before it is known to differ: every emission that gets here
// is an improvement by construction.
func (c *Core) admitAggregate(st *eval.AggState, hi int, rel *storage.Relation, row []uint32, miss []term.Value, ruleID int, parents []*core.FactMeta) (int, error) {
	prev, ok := st.LastEmitted(hi)
	if !ok {
		n, err := c.admit(rel, row, storage.HashRow(row), miss, ruleID, parents, true)
		if n > 0 {
			st.RecordEmitted(hi, rel.At(rel.Len()-1), rel.Len()-1)
		}
		return n, err
	}
	if c.exhausted() {
		return 0, c.errBudget()
	}
	old := prev.Meta.Fact
	f := eval.RowFact(rel.Name(), make([]term.Value, len(row)), row, c.db.Interner(), miss)
	switch rel.Replace(prev.Row, f) {
	case storage.ReplaceUnchanged:
		return 0, nil // e.g. the aggregate result does not occur in the head
	case storage.ReplaceRetracted:
		// The improved value already exists as an independently stored
		// fact; the superseded intermediate was retracted and the group is
		// represented by that fact. The next improvement starts fresh.
		st.RecordEmitted(hi, nil, 0)
		c.noteSuperseded(old)
		return 0, nil
	default: // ReplaceDone
		c.meter.Charge()
		c.onAdmit(prev.Meta)
		c.noteSuperseded(old)
		c.replaceTagTwin(old, prev.Meta)
		return 1, nil
	}
}

// noteSuperseded tells fact-memorizing termination policies that old is no
// longer stored.
func (c *Core) noteSuperseded(old ast.Fact) {
	if obs, ok := c.strat.(core.SupersessionObserver); ok {
		obs.NoteSuperseded(old)
	}
}

// insertTagTwin mirrors a stored fact of a tagged predicate into its tag
// twin, with labelled nulls replaced by their canonical ground keys
// (dynamic harmful-join elimination; see
// rewrite.EliminateHarmfulJoinsDynamic). The twin is built in ID space from
// the fact's stored row — a null's twin key is rendered and interned once
// per null (twinKey) — and probed there, so a twin already stored dies
// without an allocation; a new twin's values are decoded from its row into
// the run's arena. Twins are bookkeeping, not derivations: they do not
// charge the meter.
func (c *Core) insertTagTwin(m *core.FactMeta) {
	twin, ok := c.p.RW.TagPreds[m.Fact.Pred]
	if !ok {
		return
	}
	row := c.twinRow(c.db.Lookup(m.Fact.Pred).Row(m.RowIndex()), m.Fact.Args)
	rel := c.db.Rel(twin, len(row))
	h := storage.HashRow(row)
	if rel.ContainsRowHash(row, h) {
		return
	}
	args := eval.RowFact(twin, c.args.Alloc(len(row)), row, c.db.Interner(), nil).Args
	// Relation-level: twin constants are bookkeeping, not ACDom members.
	if tm := rel.InsertEDBRow(row, h, args, c.strat); tm != nil {
		c.onAdmit(tm)
	}
}

// twinRow builds, in twinBuf, the tag-twin row of the fact with values
// args stored as row stored: each null's ID replaced by its twin key's.
func (c *Core) twinRow(stored []uint32, args []term.Value) []uint32 {
	row := c.twinBuf[:0]
	for i, v := range args {
		id := stored[i]
		if v.IsNull() {
			id = c.twinKey(id, v)
		}
		row = append(row, id)
	}
	c.twinBuf = row
	return row
}

// twinKey returns the interned ID of the tag-twin image of the labelled
// null v, interned as id: the string "\x00" + its canonical ground key
// (storage.Database.AppendNullKey), rendered on the null's first twin and
// remembered by id after that (a null's key never changes).
func (c *Core) twinKey(id uint32, v term.Value) uint32 {
	if int(id) < len(c.twinKeys) && c.twinKeys[id] != 0 {
		return c.twinKeys[id]
	}
	c.keyBuf = c.db.AppendNullKey(append(c.keyBuf[:0], 0), v)
	k := c.db.Interner().Intern(term.String(string(c.keyBuf)))
	if n := int(id) + 1; n > len(c.twinKeys) {
		c.twinKeys = slices.Grow(c.twinKeys, n-len(c.twinKeys))[:n]
	}
	c.twinKeys[id] = k
	return k
}

// replaceTagTwin mirrors an aggregate supersession into the tag twin of a
// tagged predicate: the twin of the superseded fact old, found by its row,
// is replaced by the twin of m, the fact that replaced it in place. The
// superseding twin's Args are on the heap, like the aggregate head's.
func (c *Core) replaceTagTwin(old ast.Fact, m *core.FactMeta) {
	twin, ok := c.p.RW.TagPreds[old.Pred]
	if !ok {
		return
	}
	in := c.db.Interner()
	oldRow := c.twinBuf[:0]
	for _, v := range old.Args {
		id, _ := in.IDOf(v) // stored until now, hence interned
		if v.IsNull() {
			id = c.twinKey(id, v)
		}
		oldRow = append(oldRow, id)
	}
	c.twinBuf = oldRow
	rel := c.db.Rel(twin, len(oldRow))
	idx, found := rel.FindRow(oldRow, storage.HashRow(oldRow))
	if !found {
		c.insertTagTwin(m)
		return
	}
	row := c.twinRow(c.db.Lookup(m.Fact.Pred).Row(m.RowIndex()), m.Fact.Args)
	f := eval.RowFact(twin, make([]term.Value, len(row)), row, in, nil)
	if rel.Replace(idx, f) == storage.ReplaceDone {
		c.onAdmit(rel.At(idx))
	}
}

// Steps returns the schedule a firing of rule ri pinned at pos runs; cr is
// ri itself or the body its CSE group matches once for all members. Skolem
// rules fix their enumeration order by construction and run ri's static
// schedule, as does every rule under Config.DisablePlanner (neither is ever
// in a CSE group); every other firing runs the planner's plan for (cr,
// pos). A plan's probe indexes are presized on the call that derived it,
// once per derived plan.
func (c *Core) Steps(ri int, cr *eval.CompiledRule, pos int) []eval.Step {
	if st := c.p.static[ri]; st != nil {
		return st[pos]
	}
	derives := c.pl.Derives()
	p := c.pl.PlanFor(cr, pos)
	if c.pl.Derives() != derives {
		for _, pr := range p.Probes {
			if rel := c.db.Lookup(pr.Pred); rel != nil {
				rel.EnsureIndexSized(pr.Mask, pr.Keys)
			}
		}
	}
	return p.Steps
}

// Match enumerates the matches of a firing of rule ri — cr is ri or its CSE
// group's body, see Steps — with Pos[pos] pinned to the stored delta m,
// handing each complete binding to fn in b. Nothing is admitted: engines
// that buffer a firing capture what fn sees and Replay it.
func (c *Core) Match(ri int, cr *eval.CompiledRule, pos int, m *core.FactMeta, b *eval.Binding, fn func(*eval.Binding) error) error {
	return c.mt.MatchPinned(cr, pos, m, c.Steps(ri, cr, pos), b, fn)
}

// Fire is the fused firing of rule ri pinned at pos to delta m: every match
// is emitted as it is enumerated, so the enumeration order is the admission
// order — the path of rules whose matching mints nulls, and of any firing
// whose enumeration order is already canonical. It returns how many facts
// were stored or replaced.
func (c *Core) Fire(ri, pos int, m *core.FactMeta, b *eval.Binding) (int, error) {
	admitted := 0
	err := c.Match(ri, c.p.Rules[ri], pos, m, b, func(b *eval.Binding) error {
		c.matches++
		n, err := c.Emit(ri, b)
		admitted += n
		return err
	})
	return admitted, err
}

// Replay runs the bindings lg captured for rule ri through Emit in the
// order perm gives (eval.BindingLog.CanonicalOrder over ri's range of lg),
// restoring each into b — the one path from a buffered match to the store,
// for the ranges of the chase's batch log and the pipeline's buffered
// firings alike. A CSE group member replays the range its group's body
// captured: post is its PostMatchSteps, the assignments and conditions the
// body match did not run (empty for a range ri captured itself, and for a
// member whose every condition its group's body tests: such a member has no
// negation or dom tail either, so its matches go straight to Emit). It
// returns how many facts were stored or replaced.
func (c *Core) Replay(ri int, lg *eval.BindingLog, perm []int32, b *eval.Binding, post []eval.Step) (int, error) {
	admitted := 0
	emit := func(b *eval.Binding) error {
		c.matches++
		n, err := c.Emit(ri, b)
		admitted += n
		return err
	}
	for _, i := range perm {
		lg.Restore(int(i), c.db.Interner(), b)
		var err error
		if len(post) == 0 {
			err = emit(b)
		} else {
			err = c.mt.Replay(c.p.Rules[ri], post, b, emit)
		}
		if err != nil {
			return admitted, err
		}
	}
	return admitted, nil
}

// Explain renders the access plan annotated, per rule and per delta-pinned
// body atom, with the join order the cost-based planner holds for what that
// firing runs and the estimates that drove it, against the statistics at
// call time — so explaining after a run shows the orders it converged on.
// note, when non-nil, names a firing (rule ri pinned at pos) that runs
// another rule than ri — a CSE group's body — and the text appended to its
// line. Skolem rules run their static schedules and say so; with the planner
// disabled Explain renders the plain plan.
func (c *Core) Explain(note func(ri, pos int) (runs *eval.CompiledRule, text string)) string {
	var annotate func(ri int, cr *eval.CompiledRule) []string
	if c.pl != nil {
		annotate = func(ri int, cr *eval.CompiledRule) []string {
			if c.p.Skolem[ri] {
				return []string{"static schedule (inline rule)"}
			}
			lines := make([]string, 0, len(cr.Pos))
			for pos := range cr.Pos {
				runs, text := cr, ""
				if note != nil {
					if body, t := note(ri, pos); body != nil {
						runs, text = body, t
					}
				}
				lines = append(lines, c.pl.Describe(runs, pos)+text)
			}
			return lines
		}
	}
	return planner.RenderPlan(c.p.Prog, c.p.Preds, c.p.Rules, annotate)
}
