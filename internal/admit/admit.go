// Package admit is the fact-production step both evaluators share: every
// complete rule match, whichever scheduler found it, passes through one
// termination-strategy wrapper (Algorithm 1 of the paper) before it is
// stored. The breadth-first chase of internal/chase and the
// pipe-and-filters engine of internal/pipeline differ only in how they
// find matches; what happens to a match afterwards — constraint and EGD
// enforcement, monotonic aggregation with supersession, existential
// instantiation, the duplicate check, the termination check, budget
// metering, storage, tag-twin mirroring and the canonical-order replay of
// buffered matches — lives here, once.
//
// Compiled is the compile-time half (rewrite, warded analysis, strata,
// per-rule plans); Core is the per-run half (database, policy, meter, join
// planner, aggregate state). An engine hands NewCore one hook, called with every
// fact that was stored or replaced in place, and schedules from it: the
// chase appends to its delta queue, the pipeline wakes its buffers. The
// core never learns which engine drives it.
package admit

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lint"
	"repro/internal/planner"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/term"
)

// ErrInconsistent is returned (wrapped) when a negative constraint fires
// or an EGD equates two distinct constants.
var ErrInconsistent = errors.New("admit: knowledge base is inconsistent")

// ErrBudget is returned (wrapped) when the derivation budget is exhausted;
// with the termination strategy enabled this indicates a genuinely
// enormous answer, with it disabled it is the expected outcome on
// non-terminating programs. A refused step has mutated nothing, so raising
// the budget (SetBudget) and re-firing the delta resumes the run.
var ErrBudget = errors.New("admit: derivation budget exceeded")

// ErrArity is returned (wrapped) when a loaded row's width differs from
// its predicate's arity: the compiled program's, or for a predicate the
// program does not mention, that of the relation an earlier load created.
// The row is not stored, so every later load of it is refused again.
var ErrArity = errors.New("admit: row does not have its predicate's arity")

// DefaultBudget caps admitted facts when Config.MaxDerivations is unset.
const DefaultBudget = 10_000_000

// Config is the one option set of both engines (chase.Options and
// pipeline.Options are aliases of it): what compilation, admission and join
// planning need to know. The zero value is the production configuration.
type Config struct {
	// RequireWarded makes Compile fail when the rewritten program is not
	// warded instead of proceeding best-effort.
	RequireWarded bool
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
	// Strata maps every predicate of Prog to its stratum when some rule
	// negates (analysis.Condensation, tag twins derived from their
	// predicates). Both engines fire a stratum's rules only once the strata
	// below it are complete. nil means one stratum: no rule negates.
	Strata map[string]int

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
	if cfg.RequireWarded {
		if err := lint.RequireWarded(res); err != nil {
			return nil, fmt.Errorf("admit: %w", err)
		}
	}
	// Parse does not reject arity drift (the lint layer reports it as
	// A001); Predicates does.
	preds, err := rw.Program.Predicates()
	if err != nil {
		return nil, err
	}
	if cfg.MaxDerivations <= 0 {
		cfg.MaxDerivations = DefaultBudget
	}
	p := &Compiled{cfg: cfg, Prog: rw.Program, Res: res, RW: rw, Preds: preds}
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
		negates = negates || len(cr.Neg) > 0
		p.Rules = append(p.Rules, cr)
		p.postAgg = append(p.postAgg, pa)
		p.Skolem = append(p.Skolem, skolem)
	}
	// Only a program that negates pays for the condensation. Negation
	// through recursion has no stratified model to compute.
	if negates {
		g := analysis.Condense(rw.Program, rw.TagPreds)
		if err := g.Err(); err != nil {
			return nil, fmt.Errorf("admit: %w", err)
		}
		p.Strata, p.reachesNeg = g.Strata(), g.ReachesNegation()
	}
	return p, nil
}

// Config returns the options p was compiled with, MaxDerivations resolved.
func (p *Compiled) Config() Config { return p.cfg }

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
	mt    eval.Matcher     // existential instantiation only
	aggs  []*eval.AggState
	// headRels caches, per rule and head, the relation emitHeads admits
	// into: resolved by name on the first emission, never dropped after.
	headRels [][]*storage.Relation

	// onAdmit is the engine's one hook: m was stored, or replaced in place.
	onAdmit func(m *core.FactMeta)

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

	// twinBuf is insertTagTwin's row scratch; twinKeys maps a labelled
	// null's interned ID to the interned ID of its tag-twin key (0: not yet
	// rendered).
	twinBuf  []uint32
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

// LoadFacts admits facts through LoadRow in order, stopping at the first
// refused one: the facts before it stay admitted.
func (c *Core) LoadFacts(facts []ast.Fact) error {
	for _, f := range facts {
		if err := c.LoadRow(f.Pred, f.Args); err != nil {
			return err
		}
	}
	return nil
}

// Guard runs load under the load path's crash isolation: a panic (a
// storage fault mid-chunk) becomes a typed error labelled engine, with the
// already-admitted prefix intact — loading skips duplicates, so re-feeding
// the same facts resumes exactly where the crash struck.
func Guard(engine string, load func() error) (err error) {
	defer func() {
		if r := recover(); r != nil { //vadalint:panicguard load-path crash isolation: convert storage faults into typed resumable errors
			err = &core.PanicError{Engine: engine, Value: r, Stack: debug.Stack()}
		}
	}()
	return load()
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
	// Existential aggregate heads mint per-binding nulls: each binding is
	// its own fact, not an improvement of the previous one, so they take
	// the plain admission path (no supersession).
	supersede := cr.Agg != nil && len(cr.Exists) == 0
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
// without an allocation; values are built for a new twin only. Twins are
// bookkeeping, not derivations: they do not charge the meter.
func (c *Core) insertTagTwin(m *core.FactMeta) {
	twin, ok := c.p.RW.TagPreds[m.Fact.Pred]
	if !ok {
		return
	}
	stored := c.db.Lookup(m.Fact.Pred).Row(m.RowIndex())
	row := c.twinBuf[:0]
	for i, v := range m.Fact.Args {
		id := stored[i]
		if v.IsNull() {
			id = c.twinKey(id, v)
		}
		row = append(row, id)
	}
	c.twinBuf = row
	rel := c.db.Rel(twin, len(row))
	if rel.ContainsRowHash(row, storage.HashRow(row)) {
		return
	}
	// Relation-level: twin constants are bookkeeping, not ACDom members.
	if tm := rel.InsertEDB(c.tagTwinArgs(m.Fact), c.strat); tm != nil {
		c.onAdmit(tm)
	}
}

// twinKey returns the interned ID of the tag-twin image of the labelled
// null v, interned as id: the string "\x00" + its canonical ground key,
// rendered on the null's first twin and remembered by id after that (a
// null's key never changes).
func (c *Core) twinKey(id uint32, v term.Value) uint32 {
	if int(id) < len(c.twinKeys) && c.twinKeys[id] != 0 {
		return c.twinKeys[id]
	}
	k := c.db.Interner().Intern(term.String("\x00" + c.db.Nulls.KeyOf(v)))
	if int(id) >= len(c.twinKeys) {
		c.twinKeys = append(c.twinKeys, make([]uint32, int(id)+1-len(c.twinKeys))...)
	}
	c.twinKeys[id] = k
	return k
}

// tagTwinArgs returns the tag-twin image of the stored fact f's arguments:
// labelled nulls replaced by their twin keys.
func (c *Core) tagTwinArgs(f ast.Fact) []term.Value {
	in := c.db.Interner()
	args := make([]term.Value, len(f.Args))
	for i, v := range f.Args {
		args[i] = v
		if v.IsNull() {
			id, _ := in.IDOf(v) // stored, hence interned
			args[i] = in.ValueOf(c.twinKey(id, v))
		}
	}
	return args
}

// replaceTagTwin mirrors an aggregate supersession into the tag twin of a
// tagged predicate: the twin of the superseded fact old is replaced by the
// twin of m, the fact that replaced it in place.
func (c *Core) replaceTagTwin(old ast.Fact, m *core.FactMeta) {
	twin, ok := c.p.RW.TagPreds[old.Pred]
	if !ok {
		return
	}
	newArgs := c.tagTwinArgs(m.Fact)
	rel := c.db.Rel(twin, len(newArgs))
	idx, found := rel.FindExact(ast.Fact{Pred: twin, Args: c.tagTwinArgs(old)})
	if !found {
		c.insertTagTwin(m)
		return
	}
	if rel.Replace(idx, ast.Fact{Pred: twin, Args: newArgs}) == storage.ReplaceDone {
		c.onAdmit(rel.At(idx))
	}
}

// Replay runs the bindings lg captured for rule ri through Emit in the
// order perm gives (eval.BindingLog.CanonicalOrder over ri's range of lg),
// restoring each into b — the one path from a buffered match to the store,
// for the ranges of the chase's batch log and the pipeline's buffered
// firings alike. It returns how many facts were stored or replaced.
func (c *Core) Replay(ri int, lg *eval.BindingLog, perm []int32, b *eval.Binding) (int, error) {
	admitted := 0
	for _, i := range perm {
		lg.Restore(int(i), c.db.Interner(), b)
		n, err := c.Emit(ri, b)
		admitted += n
		if err != nil {
			return admitted, err
		}
	}
	return admitted, nil
}
