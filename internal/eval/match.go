package eval

import (
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/term"
)

// Binding is the runtime slot environment of one rule evaluation. Slots
// bound by atom matching hold interned term IDs (IDs); slots bound to
// computed values — assignments, aggregate results, existential nulls —
// hold the term.Value itself in an overlay (vals/hasVal) so transient
// intermediate values never pollute the database interner. Values are
// decoded only at expression-evaluation and output boundaries via Val.
// Buffers are reused across matches of the same rule.
type Binding struct {
	IDs   []uint32
	Bound []bool
	// Parents collects the fact metadata matched per positive atom, in Pos
	// order, for the termination strategy.
	Parents []*core.FactMeta
	// ParentRows records the storage row index matched per positive atom
	// (-1 for the pinned atom and unmatched atoms). The tuple identifies a
	// candidate independently of the join order that enumerated it, which
	// is what lets the engines admit candidates in a canonical order no
	// matter which plan produced them.
	ParentRows []int32
	// RowBound, when non-nil, bounds each positive body atom to the rows
	// its engine has already consumed there: atom i matches only rows with
	// index < RowBound[i] (semi-naive evaluation, see pipeline.fire). Nil —
	// the chase, the baseline, every rule the pipeline leaves unbounded —
	// matches every stored row.
	RowBound []int

	in *storage.Interner // set by the Matcher on each MatchPinned

	hasVal []bool
	vals   []term.Value

	// headMiss, constIDs and constIn are AppendHeadRow's scratch: the
	// values of head positions the interner has never seen, and the cached
	// IDs of head constants with the interner they were resolved against.
	// All are allocated on first need — most rules have neither.
	headMiss []term.Value
	constIDs [][]uint32
	constIn  *storage.Interner

	// rels caches the relation of each positive body atom, as resolved
	// against relsDB (see posRel).
	rels   []*storage.Relation
	relsDB *storage.Database

	// probes holds one reusable lookup buffer per positive body atom;
	// negProbes per negated atom; stack the arguments of builtin and
	// Skolem calls.
	probes    [][]uint32
	negProbes [][]uint32
	stack     []term.Value
	newly     []int
}

// NewBinding allocates a binding for cr.
func NewBinding(cr *CompiledRule) *Binding {
	b := &Binding{
		IDs:        make([]uint32, cr.NSlots),
		Bound:      make([]bool, cr.NSlots),
		hasVal:     make([]bool, cr.NSlots),
		vals:       make([]term.Value, cr.NSlots),
		Parents:    make([]*core.FactMeta, len(cr.Pos)),
		ParentRows: make([]int32, len(cr.Pos)),
		probes:     make([][]uint32, len(cr.Pos)),
		rels:       make([]*storage.Relation, len(cr.Pos)),
		newly:      make([]int, 0, cr.NSlots),
	}
	for i := range cr.Pos {
		b.probes[i] = make([]uint32, cr.Pos[i].arity())
	}
	b.negProbes = make([][]uint32, len(cr.Neg))
	for i := range cr.Neg {
		b.negProbes[i] = make([]uint32, cr.Neg[i].arity())
	}
	return b
}

// Val decodes the value bound in slot s.
func (b *Binding) Val(s int) term.Value {
	if b.hasVal[s] {
		return b.vals[s]
	}
	return b.in.ValueOf(b.IDs[s])
}

// Set binds slot s to a computed value without interning it.
func (b *Binding) Set(s int, v term.Value) {
	b.vals[s] = v
	b.hasVal[s] = true
	b.Bound[s] = true
}

// bindID binds slot s to an interned ID (atom matching).
func (b *Binding) bindID(s int, id uint32) {
	b.IDs[s] = id
	b.hasVal[s] = false
	b.Bound[s] = true
}

// slotID returns the interned ID of the (bound) slot s; ok is false when
// the slot holds a computed value absent from the interner, i.e. a value
// occurring in no stored fact.
func (b *Binding) slotID(s int) (uint32, bool) {
	if b.hasVal[s] {
		return b.in.IDOf(b.vals[s])
	}
	return b.IDs[s], true
}

// posRel returns the relation of cr's ai-th positive atom in db, nil while
// the predicate has none. Hits are cached per binding — a binding serves one
// rule on one goroutine, and a database never drops a relation — so the
// by-name lookup is paid once per run; misses are retried, because a later
// insertion creates the relation. A pure read of the store.
func (b *Binding) posRel(db *storage.Database, cr *CompiledRule, ai int) *storage.Relation {
	if b.relsDB != db {
		b.relsDB = db // rebound to another database
		clear(b.rels)
	}
	rel := b.rels[ai]
	if rel == nil {
		rel = db.Lookup(cr.Pos[ai].Pred)
		b.rels[ai] = rel
	}
	return rel
}

// Matcher runs compiled rules against a database. It owns no mutable state
// beyond per-rule reusable bindings, so one Matcher per engine suffices.
// Probes build and extend the dynamic indexes they use (the slot machine
// join's lazy indexing), so a Matcher is for one goroutine at a time.
type Matcher struct {
	DB *storage.Database
}

// unifyRow unifies atom a with a stored row in ID space — the one loop
// behind every atom of a match, the pinned delta included. Positions in
// checked are guaranteed by the index probe that produced the row. At any
// other, a constant must be the row's value, a bound variable must hold the
// row's ID, an unbound one is bound to it and recorded in b.newly for the
// caller to unbind. The row has the atom's arity: the compile fixes one per
// predicate, and the store holds no other. A pure read of the store.
func (b *Binding) unifyRow(a *CAtom, row []uint32, checked uint32) bool {
	for i, isv := range a.IsVar {
		if checked&(1<<uint(i)) != 0 {
			continue
		}
		id := row[i]
		if !isv {
			if b.in.ValueOf(id) != a.Const[i] {
				return false
			}
			continue
		}
		s := a.Slot[i]
		if !b.Bound[s] {
			b.bindID(s, id)
			b.newly = append(b.newly, s)
		} else if sid, ok := b.slotID(s); !ok || sid != id {
			return false
		}
	}
	return true
}

// MatchPinned enumerates all matches of cr's positive body where Pos
// [pinned] is bound to pinnedMeta, invoking emit for each complete
// binding. pinnedMeta must be a fact stored in that atom's relation (the
// pin reads its row); one stored nowhere matches nothing. emit must not
// retain b (copy what it needs). Returning an error from emit aborts the
// enumeration.
//
// When pinned == len(cr.Pos) the rule is evaluated without a pin (naive
// evaluation over the whole database).
func (mt *Matcher) MatchPinned(cr *CompiledRule, pinned int, pinnedMeta *core.FactMeta, b *Binding, emit func(b *Binding) error) error {
	return mt.MatchPinnedSteps(cr, pinned, pinnedMeta, cr.schedules[pinned], b, emit)
}

// MatchPinnedSteps is MatchPinned running an explicit schedule instead
// of the compiled static one — the seam through which the engines feed
// planner-derived schedules. steps must cover the same assignments,
// conditions and non-pinned atoms as cr.Schedule(pinned) (only their
// order may differ); ScheduleFor produces exactly such schedules.
func (mt *Matcher) MatchPinnedSteps(cr *CompiledRule, pinned int, pinnedMeta *core.FactMeta, steps []Step, b *Binding, emit func(b *Binding) error) error {
	b.in = mt.DB.Interner()
	for i := range b.Bound {
		b.Bound[i] = false
		b.hasVal[i] = false
	}
	for i := range b.Parents {
		b.Parents[i] = nil
		b.ParentRows[i] = -1
	}
	b.newly = b.newly[:0]
	if pinned < len(cr.Pos) {
		// The delta is a stored fact: its row holds the IDs, nothing is
		// interned to pin it.
		rel, ri := b.posRel(mt.DB, cr, pinned), pinnedMeta.RowIndex()
		if rel == nil || ri < 0 || !b.unifyRow(&cr.Pos[pinned], rel.Row(ri), 0) {
			return nil
		}
		b.Parents[pinned] = pinnedMeta
	}
	return mt.runSteps(cr, steps, 0, b, emit)
}

// Replay runs steps (assignments, conditions — no matches) over an
// already populated binding, then the negation/dom tail, then emit.
// It is the member half of CSE body sharing: after a shared body match
// is restored into b, Replay applies the member rule's private
// PostMatchSteps and hands complete bindings to emit.
func (mt *Matcher) Replay(cr *CompiledRule, steps []Step, b *Binding, emit func(b *Binding) error) error {
	b.in = mt.DB.Interner()
	return mt.runSteps(cr, steps, 0, b, emit)
}

func (mt *Matcher) runSteps(cr *CompiledRule, steps []Step, si int, b *Binding, emit func(b *Binding) error) error {
	for ; si < len(steps); si++ {
		st := steps[si]
		switch st.Kind {
		case StepAssign:
			if err := mt.evalAssign(&cr.Assigns[st.Index], b); err != nil {
				return err
			}
		case StepCond:
			ok, err := cr.Conds[st.Index].Holds(b)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		case StepMatch:
			return mt.matchAtom(cr, steps, si, st.Index, b, emit)
		}
	}
	// All steps done: negation, dom guard, then emit.
	for i := range cr.Neg {
		cnt, err := mt.negCount(&cr.Neg[i], b, b.negProbes[i])
		if err != nil {
			return err
		}
		if cnt > 0 {
			return nil
		}
	}
	for _, s := range cr.DomSlots {
		if !b.Bound[s] {
			return nil
		}
		if b.hasVal[s] {
			if !mt.DB.InActiveDomain(b.vals[s]) {
				return nil
			}
		} else if !mt.DB.InActiveDomainID(b.IDs[s]) {
			return nil
		}
	}
	return emit(b)
}

// matchAtom enumerates the facts matching Pos[ai] under the current
// binding using the dynamic index, then recurses into the remaining
// steps. Probes and candidate verification work entirely on interned
// IDs; no probe allocates or renders values. Under a row bound it stops at
// the first row at or past b.RowBound[ai]: lookups return ascending row
// indexes, so every later row is past it too.
func (mt *Matcher) matchAtom(cr *CompiledRule, steps []Step, si int, ai int, b *Binding, emit func(b *Binding) error) error {
	a := &cr.Pos[ai]
	rel := b.posRel(mt.DB, cr, ai)
	if rel == nil {
		return nil
	}
	probe := b.probes[ai]
	var mask uint32
	for i, isv := range a.IsVar {
		if !isv {
			id, ok := b.in.IDOf(a.Const[i])
			if !ok {
				return nil // constant occurs in no stored fact
			}
			mask |= 1 << uint(i)
			probe[i] = id
		} else if b.Bound[a.Slot[i]] {
			id, ok := b.slotID(a.Slot[i])
			if !ok {
				return nil // bound value occurs in no stored fact
			}
			mask |= 1 << uint(i)
			probe[i] = id
		}
	}
	rows := rel.LookupIDs(mask, probe)
	bound := math.MaxInt
	if b.RowBound != nil {
		bound = b.RowBound[ai]
	}
	markNewly := len(b.newly)
	for _, rowIdx := range rows {
		if int(rowIdx) >= bound {
			break
		}
		if b.unifyRow(a, rel.Row(int(rowIdx)), mask) {
			b.Parents[ai] = rel.At(int(rowIdx))
			b.ParentRows[ai] = rowIdx
			if err := mt.runSteps(cr, steps, si+1, b, emit); err != nil {
				return err
			}
			b.Parents[ai] = nil
			b.ParentRows[ai] = -1
		}
		// Unbind this row's bindings (deeper levels restored theirs on
		// return, so everything past markNewly belongs to this level).
		for _, s := range b.newly[markNewly:] {
			b.Bound[s] = false
		}
		b.newly = b.newly[:markNewly]
	}
	return nil
}

// negCount returns how many stored facts match the (fully bound) negated
// atom.
func (mt *Matcher) negCount(a *CAtom, b *Binding, probe []uint32) (int, error) {
	rel := mt.DB.Lookup(a.Pred)
	if rel == nil {
		return 0, nil
	}
	var mask uint32
	for i, isv := range a.IsVar {
		if !isv {
			id, ok := b.in.IDOf(a.Const[i])
			if !ok {
				return 0, nil // constant occurs in no stored fact
			}
			mask |= 1 << uint(i)
			probe[i] = id
			continue
		}
		s := a.Slot[i]
		if !b.Bound[s] {
			// Anonymous variable in a negated atom: wildcard position.
			continue
		}
		id, ok := b.slotID(s)
		if !ok {
			return 0, nil
		}
		mask |= 1 << uint(i)
		probe[i] = id
	}
	return rel.LookupCountIDs(mask, probe), nil
}

// evalAssign computes one assignment into its slot; Skolem calls mint
// deterministic nulls. An evaluation error aborts the match.
func (mt *Matcher) evalAssign(a *CAssign, b *Binding) error {
	if !a.IsSkolem {
		v, err := a.expr(b)
		if err != nil {
			return err
		}
		b.Set(a.Slot, v)
		return nil
	}
	base, err := b.push(a.skArgs)
	if err != nil {
		return err
	}
	b.Set(a.Slot, mt.DB.Nulls.Skolem(a.SkName, b.stack[base:]...))
	b.stack = b.stack[:base]
	return nil
}

// InstantiateExistentials fills the existential slots of b with the rule's
// deterministic Skolem nulls.
func (mt *Matcher) InstantiateExistentials(cr *CompiledRule, b *Binding) {
	for _, ex := range cr.Exists {
		base := len(b.stack)
		for _, s := range ex.ArgSlots {
			b.stack = append(b.stack, b.Val(s))
		}
		b.Set(ex.Slot, mt.DB.Nulls.Skolem(ex.SkName, b.stack[base:]...))
		b.stack = b.stack[:base]
	}
}

// AppendHeadRow is the head-row builder: it appends the interned row of
// cr's hi-th head under b (after existential instantiation) to dst and
// returns the extended slice. Matched slots already hold IDs and head
// constants resolve through the interner once per run; only computed values
// — Skolem nulls, assignment and aggregate results, and every value once
// subst is non-empty, since an EGD may have rewritten it — are looked up,
// never interned: a value no stored fact holds stays out of the interner
// until its fact is admitted.
//
// miss is nil when every argument resolved. Otherwise some value occurs in
// no stored fact, so the head fact is stored nowhere and needs no duplicate
// probe: the row holds the invalid ID 0 at those positions and miss, indexed
// by head position and valid until the binding's next AppendHeadRow, holds
// their values for RowFact.
func (b *Binding) AppendHeadRow(dst []uint32, cr *CompiledRule, hi int, subst *NullSubst) (row []uint32, miss []term.Value, err error) {
	h := &cr.Heads[hi]
	resolve := subst != nil && !subst.Empty()
	for i, isv := range h.IsVar {
		var id uint32
		var v term.Value
		ok := true
		switch {
		case !isv:
			if id = b.headConstID(cr, hi, i); id == 0 {
				v, ok = h.Const[i], false
			}
		case !b.Bound[h.Slot[i]]:
			return dst, nil, fmt.Errorf("eval: head variable slot %d unbound in rule %d", h.Slot[i], cr.Rule.ID)
		case resolve:
			v = subst.Resolve(b.Val(h.Slot[i]))
			id, ok = b.in.IDOf(v)
		case b.hasVal[h.Slot[i]]:
			v = b.vals[h.Slot[i]]
			id, ok = b.in.IDOf(v)
		default:
			id = b.IDs[h.Slot[i]]
		}
		if !ok {
			if miss == nil {
				if len(b.headMiss) < len(h.IsVar) {
					b.headMiss = make([]term.Value, len(h.IsVar))
				}
				miss = b.headMiss
			}
			miss[i], id = v, 0
		}
		dst = append(dst, id)
	}
	return dst, miss, nil
}

// headConstID returns the interned ID of the constant at position i of cr's
// hi-th head, 0 while no stored fact contains it. Hits are cached per
// binding — a binding serves one rule over one interner for a whole run, so
// each constant is hashed once; misses are retried, because the first
// insertion of the head fact interns the constant.
func (b *Binding) headConstID(cr *CompiledRule, hi, i int) uint32 {
	if b.constIn != b.in {
		b.constIn, b.constIDs = b.in, nil // rebound to another database
	}
	if b.constIDs == nil {
		b.constIDs = make([][]uint32, len(cr.Heads))
	}
	if b.constIDs[hi] == nil {
		b.constIDs[hi] = make([]uint32, cr.Heads[hi].arity())
	}
	id := b.constIDs[hi][i]
	if id == 0 {
		id, _ = b.in.IDOf(cr.Heads[hi].Const[i])
		b.constIDs[hi][i] = id
	}
	return id
}

// RowFact materializes the fact of an interned row of pred into args, which
// must have the row's length and becomes the fact's Args: the decode
// boundary, reached only by candidates that survived the duplicate check.
// Positions holding the invalid ID 0 take their value from miss (see
// AppendHeadRow); a fully interned row needs none.
func RowFact(pred string, args []term.Value, row []uint32, in *storage.Interner, miss []term.Value) ast.Fact {
	for i, id := range row {
		if id != 0 {
			args[i] = in.ValueOf(id)
		} else {
			args[i] = miss[i]
		}
	}
	return ast.Fact{Pred: pred, Args: args}
}

// WardFirstParentsAppend appends the matched parents to out with the ward's
// fact first, as core.Strategy.Derive expects for warded rules. out is a
// caller-owned buffer reused across emissions; safe because termination
// policies may retain parent facts but never the slice itself (see
// core.Policy).
func WardFirstParentsAppend(cr *CompiledRule, b *Binding, out []*core.FactMeta) []*core.FactMeta {
	if cr.WardPos >= 0 && cr.WardPos < len(b.Parents) {
		out = append(out, b.Parents[cr.WardPos])
		for i, p := range b.Parents {
			if i != cr.WardPos && p != nil {
				out = append(out, p)
			}
		}
		return out
	}
	for _, p := range b.Parents {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}
