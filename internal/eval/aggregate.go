package eval

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/term"
)

// AggState holds the stateful record-level monotonic aggregation operators
// of paper Sec. 5 for one rule: per group-by tuple, the best contribution
// retained per contributor tuple, the current aggregate, and the facts the
// owning rule last admitted for the group. The latter is the supersession
// layer: the stream of intermediate aggregates is transient — only its
// limit belongs in the final database — so when a group's aggregate
// improves, the engines replace the previously admitted fact in place
// (storage.Relation.Replace) instead of letting superseded intermediates
// accumulate. At quiescence exactly one fact per group and rule remains,
// the final one, regardless of rule-application order.
//
// Group and contributor tuples are keyed by interned term IDs (packed,
// fixed-width), not rendered strings: keys cannot collide for values whose
// renderings coincide (e.g. strings containing a separator byte) and the
// per-Update hot path never renders values.
//
// msum and mprod enforce the paper's monotonicity domains (contributions
// ≥ 0 for msum, ≥ 1 for mprod) and recompute float aggregates over the
// retained contributions in sorted order, so the value emitted after an
// improvement is a deterministic function of the retained set — identical
// across engines and admission orders down to the last bit.
type AggState struct {
	fn     string
	in     *storage.Interner
	groups map[string]*groupState
	// cur is the group touched by the most recent Update; LastEmitted and
	// RecordEmitted address it without re-deriving the group key.
	cur    *groupState
	keyBuf []byte
}

type groupState struct {
	// contribs maps a contributor key to its best (max for increasing,
	// min for decreasing aggregations) contribution so far.
	contribs map[string]term.Value
	// distinct collects values for mcount/munion.
	distinct map[term.Value]bool
	// cur is the running aggregate for mmin/mmax.
	cur    term.Value
	hasCur bool
	// Exact integer accumulators, valid while every contribution is an
	// int and (for mprod) the product fits int64; otherwise the aggregate
	// is folded over sorted, the retained contributions kept in ascending
	// order, so float rounding depends only on the retained multiset
	// (deterministic across engines and admission orders).
	sumInt  int64
	prodInt int64
	isInt   bool
	sorted  []float64
	sumF    float64
	prodF   float64
	// last is the value returned by the previous Update for this group:
	// Update reports improved=false when the value did not change, which
	// lets the engines skip emission entirely.
	last    term.Value
	hasLast bool
	// emitted tracks, per head-atom index, the fact the owning rule last
	// admitted for this group (the supersession target).
	emitted []Emitted
}

// Emitted identifies a fact admitted for a group: its metadata and its row
// index in its predicate's relation. Rows keep their index across
// Replace, so the pair stays valid for the lifetime of the run.
type Emitted struct {
	Meta *core.FactMeta
	Row  int
}

// NewAggState creates the state for aggregation function fn, keying
// groups and contributors through in — pass the database's interner so
// stored values are keyed without re-interning; nil allocates a private
// table (tests, standalone use).
func NewAggState(fn string, in *storage.Interner) *AggState {
	if in == nil {
		in = storage.NewInterner()
	}
	return &AggState{fn: fn, in: in, groups: make(map[string]*groupState)}
}

// key packs the interned IDs of vals into a fixed-width byte string:
// collision-free by construction and allocation-light (one string per
// lookup, no rendering).
func (st *AggState) key(vals []term.Value) string {
	b := st.keyBuf[:0]
	for _, v := range vals {
		id := st.in.Intern(v)
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	st.keyBuf = b
	return string(b)
}

// Update feeds one body match into the aggregate: group is the group-by
// tuple, contrib the contributor tuple (may be empty), x the aggregated
// value. It returns the updated monotonic aggregate for the group and
// whether it improved on the previous Update's value — when improved is
// false the engines skip head emission: the group's admitted fact already
// carries this value.
//
// Per the paper, for each contributor value the maximum (for increasing
// functions: msum over non-negative, mprod over ≥1, mmax, mcount, munion)
// or minimum (mmin) contribution is retained, and the aggregate is
// recomputed over the retained contributions; subsequent invocations yield
// updated values whose limit is the final aggregate. A set-valued munion
// contribution is flattened into its elements, so unioning an improving
// set-valued stream (e.g. an aggregate consuming its own predicate, as in
// AllPSC) converges to the union of the final sets independent of which
// intermediates were observed.
func (st *AggState) Update(group, contrib []term.Value, x term.Value) (term.Value, bool, error) {
	gk := st.key(group)
	g := st.groups[gk]
	if g == nil {
		g = &groupState{
			contribs: make(map[string]term.Value),
			isInt:    true,
			prodInt:  1,
		}
		if st.fn == "mcount" || st.fn == "munion" {
			g.distinct = make(map[term.Value]bool)
		}
		st.groups[gk] = g
	}
	st.cur = g
	v, err := st.apply(g, contrib, x)
	if err != nil {
		return term.Value{}, false, err
	}
	improved := !g.hasLast || v != g.last
	g.last, g.hasLast = v, true
	return v, improved, nil
}

func (st *AggState) apply(g *groupState, contrib []term.Value, x term.Value) (term.Value, error) {
	switch st.fn {
	case "msum", "mprod":
		if !x.IsNumeric() {
			return term.Value{}, fmt.Errorf("eval: %s over non-numeric value %s", st.fn, x)
		}
		if st.fn == "msum" && x.FloatVal() < 0 {
			return term.Value{}, fmt.Errorf("eval: msum over negative contribution %s (monotonic sum requires contributions ≥ 0)", x)
		}
		if st.fn == "mprod" && x.FloatVal() < 1 {
			return term.Value{}, fmt.Errorf("eval: mprod over contribution %s < 1 (monotonic product requires contributions ≥ 1)", x)
		}
		var ck string
		if len(contrib) == 0 {
			// No windowing: set semantics — each distinct value per group
			// contributes once (idempotent under re-derivation).
			ck = st.key([]term.Value{x})
		} else {
			ck = st.key(contrib)
		}
		old, had := g.contribs[ck]
		if had && term.Compare(x, old) <= 0 {
			// Not an improvement; aggregate unchanged.
			return st.currentSumProd(g), nil
		}
		g.contribs[ck] = x
		wasInt := g.isInt
		if x.Kind() != term.KindInt {
			g.isInt = false
		}
		switch {
		case g.isInt && st.fn == "msum":
			if had {
				g.sumInt -= old.IntVal()
			}
			g.sumInt += x.IntVal()
		case g.isInt: // mprod
			// old ≥ 1 (domain-checked) divides the product exactly.
			if had {
				g.prodInt /= old.IntVal()
			}
			if v := x.IntVal(); g.prodInt > math.MaxInt64/v {
				// The exact product would overflow int64: degrade to the
				// deterministic float fold instead of wrapping around.
				g.isInt = false
				g.rebuildSorted()
			} else {
				g.prodInt *= v
			}
		case wasInt:
			// First non-int contribution: normalize the retained set once.
			g.rebuildSorted()
		default:
			if had {
				g.sorted = removeSorted(g.sorted, old.FloatVal())
			}
			g.sorted = insertSorted(g.sorted, x.FloatVal())
		}
		if !g.isInt {
			st.foldFloat(g)
		}
		return st.currentSumProd(g), nil
	case "mmin":
		if !g.hasCur || term.Compare(x, g.cur) < 0 {
			g.cur = x
			g.hasCur = true
		}
		return g.cur, nil
	case "mmax":
		if !g.hasCur || term.Compare(x, g.cur) > 0 {
			g.cur = x
			g.hasCur = true
		}
		return g.cur, nil
	case "mcount":
		key := x
		if len(contrib) > 0 {
			key = term.String(st.key(contrib))
		}
		g.distinct[key] = true
		return term.Int(int64(len(g.distinct))), nil
	case "munion":
		if x.Kind() == term.KindSet {
			for _, el := range x.SetElems() {
				g.distinct[el] = true
			}
		} else {
			g.distinct[x] = true
		}
		return setValue(g.distinct), nil
	default:
		return term.Value{}, fmt.Errorf("eval: unknown aggregation function %s", st.fn)
	}
}

// rebuildSorted normalizes the retained contributions into the sorted
// float slice the deterministic fold runs over (paid once, when the group
// leaves the exact-int fast path).
func (g *groupState) rebuildSorted() {
	g.sorted = g.sorted[:0]
	for _, v := range g.contribs {
		g.sorted = append(g.sorted, v.FloatVal())
	}
	sort.Float64s(g.sorted)
}

// foldFloat recomputes the float aggregate by folding the sorted retained
// contributions in ascending order: the result depends only on the
// retained multiset, never on arrival order, so both engines round
// identically however their fixpoints interleave. The slice is maintained
// incrementally (binary-search insert/remove), so a fold is one linear
// pass with no sorting or allocation on the hot path.
func (st *AggState) foldFloat(g *groupState) {
	if st.fn == "msum" {
		s := 0.0
		for _, f := range g.sorted {
			s += f
		}
		g.sumF = s
	} else {
		p := 1.0
		for _, f := range g.sorted {
			p *= f
		}
		g.prodF = p
	}
}

// removeSorted deletes one occurrence of f, falling back to a linear scan
// when the binary search misses (NaN contributions break the sort
// invariant; any fold containing NaN is NaN regardless of order, so the
// disorder stays harmless).
func removeSorted(s []float64, f float64) []float64 {
	i := sort.SearchFloat64s(s, f)
	if i >= len(s) || s[i] != f {
		i = -1
		for j, v := range s {
			if v == f || (math.IsNaN(v) && math.IsNaN(f)) {
				i = j
				break
			}
		}
		if i < 0 {
			return s
		}
	}
	return append(s[:i], s[i+1:]...)
}

// insertSorted inserts f keeping the slice sorted.
func insertSorted(s []float64, f float64) []float64 {
	i := sort.SearchFloat64s(s, f)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = f
	return s
}

func (st *AggState) currentSumProd(g *groupState) term.Value {
	if st.fn == "mprod" {
		if g.isInt {
			return term.Int(g.prodInt)
		}
		return term.Float(g.prodF)
	}
	if g.isInt {
		return term.Int(g.sumInt)
	}
	return term.Float(g.sumF)
}

// Unsettle withdraws the "already emitted" mark Update put on the value it
// just returned, so the group's next Update reports improved again; Settle
// restores it. The admission core brackets every emission with the pair: an
// emission that is refused or crashes half-way leaves the group unsettled,
// and the re-fired delta re-emits instead of skipping.
func (st *AggState) Unsettle() { st.cur.hasLast = false }

// Settle marks the value of the most recent Update as emitted.
func (st *AggState) Settle() { st.cur.hasLast = true }

// LastEmitted returns the fact the owning rule last admitted for head
// index hi of the group touched by the most recent Update, or ok=false
// when no fact has been admitted for it yet.
func (st *AggState) LastEmitted(hi int) (Emitted, bool) {
	if st.cur == nil || hi >= len(st.cur.emitted) || st.cur.emitted[hi].Meta == nil {
		return Emitted{}, false
	}
	return st.cur.emitted[hi], true
}

// RecordEmitted notes m (stored at row in its predicate's relation) as the
// admitted fact for head index hi of the most recent Update's group.
func (st *AggState) RecordEmitted(hi int, m *core.FactMeta, row int) {
	g := st.cur
	for len(g.emitted) <= hi {
		g.emitted = append(g.emitted, Emitted{})
	}
	g.emitted[hi] = Emitted{Meta: m, Row: row}
}

// Final returns the current (final, once the chase has quiesced) aggregate
// for a group, if present.
func (st *AggState) Final(group []term.Value) (term.Value, bool) {
	g := st.groups[st.key(group)]
	if g == nil {
		return term.Value{}, false
	}
	switch st.fn {
	case "msum", "mprod":
		return st.currentSumProd(g), true
	case "mmin", "mmax":
		return g.cur, g.hasCur
	case "mcount":
		return term.Int(int64(len(g.distinct))), true
	case "munion":
		return setValue(g.distinct), true
	}
	return term.Value{}, false
}

// Groups returns the number of distinct group-by tuples seen.
func (st *AggState) Groups() int { return len(st.groups) }

// setValue collects a distinct-value map into the canonical set constant.
func setValue(set map[term.Value]bool) term.Value {
	elems := make([]term.Value, 0, len(set))
	//vadalint:ordered term.Set dedups and sorts elems into the canonical order itself
	for v := range set {
		elems = append(elems, v)
	}
	return term.Set(elems)
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
