package eval

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/term"
)

// AggState holds the stateful record-level monotonic aggregation operator
// of paper Sec. 5 for one rule: per group-by tuple, its current aggregate,
// its members (the contributor tuples, or values, the function keeps
// apart) and the facts the owning rule last admitted for the group. The
// latter is the supersession layer: the stream of intermediate aggregates
// is transient — only its limit belongs in the final database — so when a
// group's aggregate improves, the engines replace the previously admitted
// fact in place (storage.Relation.Replace) instead of letting superseded
// intermediates accumulate. At quiescence exactly one fact per group and
// rule remains, the final one, regardless of rule-application order.
//
// The function is chosen once, when the rule compiles (CAgg.NewState).
// Groups and members are numbered by tuples of interned IDs, so keys never
// render values, and two values are one key exactly when the store holds
// them as one value (term.Identical). Every per-group datum lives in a
// slice indexed by the group's number.
type AggState struct {
	fun aggFunc
	in  *storage.Interner
	// groups numbers the group-by tuples, members the (group, key) tuples.
	groups, members idTable
	// Per group: its current value (the one the previous Update returned),
	// whether that value is emitted — Update reports improved=false when
	// the value did not change and is emitted, which lets the engines skip
	// emission — and its newest member (-1: none).
	cur     []term.Value
	settled []bool
	newest  []int32
	// older is, per member, the previous member of its group (-1 ends).
	older []int32
	// emitted[hi][g] is the fact the owning rule last admitted for group g
	// at head index hi (the supersession target).
	emitted [][]Emitted
	// last is the group touched by the most recent Update (-1: none);
	// LastEmitted, RecordEmitted, Settle and Unsettle address it.
	last int32
	ids  []uint32 // the tuple being looked up
}

// Emitted identifies a fact admitted for a group: its metadata and its row
// index in its predicate's relation. Rows keep their index across
// Replace, so the pair stays valid for the lifetime of the run.
type Emitted struct {
	Meta *core.FactMeta
	Row  int
}

// aggFunc is one monotonic aggregation function. update folds
// contribution x of contributor tuple contrib (empty when the rule names
// none) into group g, whose value is cur (invalid before the group's first
// update), and returns the group's new value.
type aggFunc interface {
	update(st *AggState, g int32, cur term.Value, contrib []term.Value, x term.Value) (term.Value, error)
}

// aggFuncs maps each aggregation function's name to its constructor.
var aggFuncs = map[string]func() aggFunc{
	"msum":   func() aggFunc { return &msum{} },
	"mprod":  func() aggFunc { return &mprod{} },
	"mmin":   func() aggFunc { return extremum(-1) },
	"mmax":   func() aggFunc { return extremum(1) },
	"mcount": func() aggFunc { return count{} },
	"munion": func() aggFunc { return &union{} },
}

// NewAggState creates the state for aggregation function fn, keying
// groups and contributors through in — pass the database's interner so
// stored values are keyed without re-interning; nil allocates a private
// table (tests, standalone use). It panics on a name that is not one of
// the six functions; a compiled rule's CAgg.NewState cannot.
func NewAggState(fn string, in *storage.Interner) *AggState {
	newFunc, ok := aggFuncs[fn]
	if !ok {
		panic("eval: unknown aggregation function " + fn)
	}
	return newAggState(newFunc(), in)
}

func newAggState(fn aggFunc, in *storage.Interner) *AggState {
	if in == nil {
		in = storage.NewInterner()
	}
	return &AggState{fun: fn, in: in, last: -1}
}

// Update feeds one body match into the aggregate: group is the group-by
// tuple, contrib the contributor tuple (may be empty), x the aggregated
// value. It returns the updated monotonic aggregate for the group and
// whether it improved on the previous Update's value — when improved is
// false the engines skip head emission: the group's admitted fact already
// carries this value.
//
// Per the paper, for each contributor the maximum (for increasing
// functions: msum over non-negative, mprod over ≥1, mmax, mcount, munion)
// or minimum (mmin) contribution is retained, and the aggregate is
// recomputed over the retained contributions; subsequent invocations yield
// updated values whose limit is the final aggregate.
func (st *AggState) Update(group, contrib []term.Value, x term.Value) (term.Value, bool, error) {
	st.ids = st.ids[:0]
	for _, v := range group {
		st.ids = append(st.ids, st.in.Intern(v))
	}
	g, fresh := st.groups.number(st.ids)
	if fresh {
		st.cur = append(st.cur, term.Value{})
		st.settled = append(st.settled, false)
		st.newest = append(st.newest, -1)
	}
	st.last = g
	v, err := st.fun.update(st, g, st.cur[g], contrib, x)
	if err != nil {
		return term.Value{}, false, err
	}
	improved := !st.settled[g] || !term.Identical(v, st.cur[g])
	st.cur[g], st.settled[g] = v, true
	return v, improved, nil
}

// member returns the number of group g's member keyed by the contributor
// tuple contrib, or by x alone when contrib is empty, and whether it is
// new.
func (st *AggState) member(g int32, contrib []term.Value, x term.Value) (int32, bool) {
	st.ids = append(st.ids[:0], uint32(g))
	if len(contrib) == 0 {
		st.ids = append(st.ids, st.in.Intern(x))
	}
	for _, v := range contrib {
		st.ids = append(st.ids, st.in.Intern(v))
	}
	m, fresh := st.members.number(st.ids)
	if fresh {
		st.older = append(st.older, st.newest[g])
		st.newest[g] = m
	}
	return m, fresh
}

// Unsettle withdraws the "already emitted" mark Update put on the value it
// just returned, so the group's next Update reports improved again; Settle
// restores it. The admission core brackets every emission with the pair: an
// emission that is refused or crashes half-way leaves the group unsettled,
// and the re-fired delta re-emits instead of skipping.
func (st *AggState) Unsettle() { st.settled[st.last] = false }

// Settle marks the value of the most recent Update as emitted.
func (st *AggState) Settle() { st.settled[st.last] = true }

// LastEmitted returns the fact the owning rule last admitted for head
// index hi of the group touched by the most recent Update, or ok=false
// when no fact has been admitted for it yet.
func (st *AggState) LastEmitted(hi int) (Emitted, bool) {
	if st.last < 0 || hi >= len(st.emitted) || int(st.last) >= len(st.emitted[hi]) {
		return Emitted{}, false
	}
	e := st.emitted[hi][st.last]
	return e, e.Meta != nil
}

// RecordEmitted notes m (stored at row in its predicate's relation) as the
// admitted fact for head index hi of the most recent Update's group.
func (st *AggState) RecordEmitted(hi int, m *core.FactMeta, row int) {
	for len(st.emitted) <= hi {
		st.emitted = append(st.emitted, nil)
	}
	e := st.emitted[hi]
	if n := int(st.last) + 1 - len(e); n > 0 {
		e = append(e, make([]Emitted, n)...)
	}
	e[st.last] = Emitted{Meta: m, Row: row}
	st.emitted[hi] = e
}

// Groups returns the number of distinct group-by tuples seen.
func (st *AggState) Groups() int { return len(st.cur) }

// idTable numbers tuples of interned IDs in order of first sight: a hash
// chain per storage.HashRow of the tuple (core.Strategy's idiom for G and
// S), every candidate verified against the stored tuple. The zero value is
// an empty table.
type idTable struct {
	chains map[uint64]int32 // tuple hash -> its newest entry
	next   []int32          // per entry: the older entry of its chain, -1 ends it
	off    []int32          // entry e's tuple is keys[off[e]:off[e+1]]
	keys   []uint32
}

// number returns the entry of tup, adding it when absent (fresh).
func (t *idTable) number(tup []uint32) (e int32, fresh bool) {
	if t.chains == nil {
		t.chains, t.off = make(map[uint64]int32), []int32{0}
	}
	h := storage.HashRow(tup)
	head, ok := t.chains[h]
	if !ok {
		head = -1
	}
	for e := head; e >= 0; e = t.next[e] {
		if slices.Equal(t.keys[t.off[e]:t.off[e+1]], tup) {
			return e, false
		}
	}
	e = int32(len(t.next))
	t.next = append(t.next, head)
	t.keys = append(t.keys, tup...)
	t.off = append(t.off, int32(len(t.keys)))
	t.chains[h] = e
	return e, true
}

// extremum is mmin (-1) and mmax (+1): the group's least or greatest
// contribution under term.Compare. Contributors play no part.
type extremum int

func (sign extremum) update(_ *AggState, _ int32, cur term.Value, _ []term.Value, x term.Value) (term.Value, error) {
	if cur.Kind() == term.KindInvalid || term.Compare(x, cur)*int(sign) > 0 {
		return x, nil
	}
	return cur, nil
}

// count is mcount: the number of distinct contributor tuples of a group,
// or of distinct values when the rule names no contributors.
type count struct{}

func (count) update(st *AggState, g int32, cur term.Value, contrib []term.Value, x term.Value) (term.Value, error) {
	if _, fresh := st.member(g, contrib, x); fresh {
		return term.Int(cur.IntVal() + 1), nil
	}
	return cur, nil
}

// union is munion: the set of distinct values contributed to a group. A
// set-valued contribution counts as its elements, so unioning an improving
// set-valued stream (e.g. an aggregate consuming its own predicate, as in
// AllPSC) converges to the union of the final sets independent of which
// intermediates were observed. Contributors play no part.
type union struct{ elems []term.Value }

func (f *union) update(st *AggState, g int32, cur term.Value, _ []term.Value, x term.Value) (term.Value, error) {
	added := false
	if x.Kind() == term.KindSet {
		for _, el := range x.SetElems() {
			_, fresh := st.member(g, nil, el)
			added = added || fresh
		}
	} else {
		_, added = st.member(g, nil, x)
	}
	if !added && cur.Kind() != term.KindInvalid {
		return cur, nil
	}
	f.elems = f.elems[:0]
	for m := st.newest[g]; m >= 0; m = st.older[m] {
		f.elems = append(f.elems, st.in.ValueOf(st.members.keys[st.members.off[m]+1]))
	}
	return term.Set(f.elems), nil
}

// retained is what msum and mprod keep per member: the greatest
// contribution so far. A group's value is exact — an Int — while every
// retained contribution is an int and the result fits an int64. After that
// it is a Float, the fold of the retained contributions in ascending
// order, so its bits depend only on the retained multiset: identical
// across engines and admission orders.
type retained struct {
	val []term.Value // per member
	buf []float64    // fold scratch
}

// retain offers x as the contribution of contrib's member of group g. It
// reports whether the member is new, what it retained before, and whether
// x replaced that (improved is false when x is no greater).
func (r *retained) retain(st *AggState, g int32, contrib []term.Value, x term.Value) (old term.Value, fresh, improved bool) {
	m, fresh := st.member(g, contrib, x)
	if fresh {
		r.val = append(r.val, x)
		return term.Value{}, true, true
	}
	if old = r.val[m]; term.Compare(x, old) <= 0 {
		return old, false, false
	}
	r.val[m] = x
	return old, false, true
}

// fold returns the float fold, by op from unit, of group g's retained
// contributions in ascending order.
func (r *retained) fold(st *AggState, g int32, unit float64, op func(acc, v float64) float64) term.Value {
	r.buf = r.buf[:0]
	for m := st.newest[g]; m >= 0; m = st.older[m] {
		r.buf = append(r.buf, r.val[m].FloatVal())
	}
	sort.Float64s(r.buf)
	acc := unit
	for _, v := range r.buf {
		acc = op(acc, v)
	}
	return term.Float(acc)
}

// msum is the monotonic sum; contributions must be ≥ 0.
type msum struct{ retained }

func (f *msum) update(st *AggState, g int32, cur term.Value, contrib []term.Value, x term.Value) (term.Value, error) {
	if !x.IsNumeric() || x.FloatVal() < 0 {
		return term.Value{}, fmt.Errorf("eval: msum over %s (monotonic sum requires numeric contributions ≥ 0)", x)
	}
	old, fresh, improved := f.retain(st, g, contrib, x)
	if !improved {
		return cur, nil
	}
	if cur.Kind() != term.KindFloat && x.Kind() == term.KindInt {
		s := cur.IntVal() // 0 before the first contribution
		if !fresh {
			s -= old.IntVal()
		}
		// An exact sum that would overflow int64 folds floats instead.
		if v := x.IntVal(); s <= math.MaxInt64-v {
			return term.Int(s + v), nil
		}
	}
	return f.fold(st, g, 0, func(acc, v float64) float64 { return acc + v }), nil
}

// mprod is the monotonic product; contributions must be ≥ 1.
type mprod struct{ retained }

func (f *mprod) update(st *AggState, g int32, cur term.Value, contrib []term.Value, x term.Value) (term.Value, error) {
	if !x.IsNumeric() || x.FloatVal() < 1 {
		return term.Value{}, fmt.Errorf("eval: mprod over %s (monotonic product requires numeric contributions ≥ 1)", x)
	}
	old, fresh, improved := f.retain(st, g, contrib, x)
	if !improved {
		return cur, nil
	}
	if cur.Kind() != term.KindFloat && x.Kind() == term.KindInt {
		p := int64(1)
		if !fresh {
			p = cur.IntVal() / old.IntVal() // old ≥ 1 divides the product exactly
		} else if cur.Kind() == term.KindInt {
			p = cur.IntVal()
		}
		// An exact product that would overflow int64 folds floats instead.
		if v := x.IntVal(); p <= math.MaxInt64/v {
			return term.Int(p * v), nil
		}
	}
	return f.fold(st, g, 1, func(acc, v float64) float64 { return acc * v }), nil
}

// NullSubst is a union-find substitution over labelled nulls, produced by
// equality-generating dependencies: a null may be unified with another
// null or promoted to a constant. Engines normalize freshly created facts
// through Resolve and apply the substitution again when emitting results.
type NullSubst struct {
	parent map[int64]int64      // null id -> representative null id
	value  map[int64]term.Value // representative null id -> ground value
}

// NewNullSubst returns an empty substitution.
func NewNullSubst() *NullSubst {
	return &NullSubst{parent: make(map[int64]int64), value: make(map[int64]term.Value)}
}

func (ns *NullSubst) find(id int64) int64 {
	root := id
	for {
		p, ok := ns.parent[root]
		if !ok {
			break
		}
		root = p
	}
	// Path compression.
	for id != root {
		next := ns.parent[id]
		ns.parent[id] = root
		id = next
	}
	return root
}

// Resolve maps v through the substitution: nulls resolve to their
// representative null or to the ground value they were equated with.
func (ns *NullSubst) Resolve(v term.Value) term.Value {
	if !v.IsNull() {
		return v
	}
	root := ns.find(v.NullID())
	if gv, ok := ns.value[root]; ok {
		return gv
	}
	return term.Null(root)
}

// Unify records a = b. It returns an error when two distinct ground values
// are equated (a hard EGD violation).
func (ns *NullSubst) Unify(a, b term.Value) error {
	a, b = ns.Resolve(a), ns.Resolve(b)
	if a == b {
		return nil
	}
	switch {
	case a.IsNull() && b.IsNull():
		ra, rb := ns.find(a.NullID()), ns.find(b.NullID())
		if ra != rb {
			ns.parent[ra] = rb
		}
	case a.IsNull():
		ns.value[ns.find(a.NullID())] = b
	case b.IsNull():
		ns.value[ns.find(b.NullID())] = a
	default:
		return fmt.Errorf("eval: EGD violation: %s = %s over distinct constants", a, b)
	}
	return nil
}

// Empty reports whether no equation has been recorded.
func (ns *NullSubst) Empty() bool { return len(ns.parent) == 0 && len(ns.value) == 0 }

// Size returns the number of recorded equations (for diagnostics).
func (ns *NullSubst) Size() int { return len(ns.parent) + len(ns.value) }

// SortedGroundings lists null->constant promotions for tests.
func (ns *NullSubst) SortedGroundings() []string {
	var out []string
	for id, v := range ns.value {
		out = append(out, fmt.Sprintf("n%d=%s", id, v))
	}
	sort.Strings(out)
	return out
}
