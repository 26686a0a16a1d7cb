package eval

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/term"
)

// aggFuncNames lists the six functions in the fuzz input's selector order.
var aggFuncNames = []string{"msum", "mprod", "mmin", "mmax", "mcount", "munion"}

// The fuzzed values: ints and floats that tie numerically, ±0, NaN, the
// edge of int64, domain violations of msum and mprod, and non-numerics
// (strings, sets, a bool) for the functions that take them.
var (
	fuzzNaN      = term.Float(math.NaN())
	fuzzNegZero  = term.Float(math.Copysign(0, -1))
	aggFuzzGroup = [][]term.Value{
		nil,
		{term.Int(1)},
		{term.Float(1)},
		{term.Float(0)},
		{fuzzNegZero},
		{fuzzNaN},
		{term.String("a"), term.Int(2)},
	}
	aggFuzzContrib = [][]term.Value{
		nil, // no contributors: the value keys itself
		{term.Int(1)},
		{term.Int(2)},
		{term.Float(1)},
		{fuzzNaN},
		{fuzzNegZero},
		{term.Float(0)},
		{term.String("x"), term.Int(1)},
	}
	aggFuzzValue = []term.Value{
		term.Int(0), term.Int(1), term.Int(2), term.Int(5), term.Int(-1),
		term.Int(math.MaxInt64 - 1), term.Int(math.MaxInt64/2 + 1), term.Int(3037000500),
		term.Float(0), fuzzNegZero, term.Float(0.5), term.Float(1), term.Float(1.5),
		term.Float(2.5), term.Float(1e18), term.Float(-2), fuzzNaN,
		term.String("a"), term.String("b"), term.Bool(true),
		term.Set([]term.Value{term.String("a")}),
		term.Set([]term.Value{term.String("a"), term.String("b")}),
		term.Set([]term.Value{term.Int(1), term.Float(2.5), fuzzNegZero}),
		term.Set(nil),
	}
)

// aggModel is the reference for AggState: it keeps every group's retained
// contributions in maps keyed by identity (term.Identical, spelled out as
// a string) and recomputes the group's value from them after each update.
type aggModel struct {
	fn     string
	groups map[string]*modelGroup
	// rep is the first value seen of each identity, in the order AggState
	// interns them (group values, then the keys of members): the value an
	// interner returns for it, which munion's sets are built from.
	rep  map[string]term.Value
	last string // the group of the most recent update
}

type modelGroup struct {
	retained map[string]term.Value // per member key: msum/mprod's greatest contribution, munion's element
	history  []term.Value          // mmin/mmax: every contribution, in arrival order
	inexact  bool                  // msum/mprod: the value became a float fold for good
	value    term.Value
	settled  bool
}

func newAggModel(fn string) *aggModel {
	return &aggModel{fn: fn, groups: map[string]*modelGroup{}, rep: map[string]term.Value{}}
}

// identity spells out term.Identical: kind and payload, every NaN one
// value and -0 equal to 0.
func identity(v term.Value) string {
	return fmt.Sprintf("%d/%d/%s", v.Kind(), v.IdentityBits(), v.Str())
}

// key is the identity of a tuple; observe records its values' first sight.
func (m *aggModel) key(vals []term.Value, observe bool) string {
	k := ""
	for _, v := range vals {
		id := identity(v)
		if _, ok := m.rep[id]; !ok && observe {
			m.rep[id] = v
		}
		k += id + "|"
	}
	return k
}

func (m *aggModel) update(group, contrib []term.Value, x term.Value) (term.Value, bool, error) {
	gk := m.key(group, true)
	g := m.groups[gk]
	if g == nil {
		g = &modelGroup{retained: map[string]term.Value{}}
		m.groups[gk] = g
	}
	m.last = gk
	member := func() string {
		if len(contrib) == 0 {
			return m.key([]term.Value{x}, false)
		}
		return m.key(contrib, false)
	}
	v := g.value
	switch m.fn {
	case "msum", "mprod":
		lo := 0.0
		if m.fn == "mprod" {
			lo = 1
		}
		if !x.IsNumeric() || x.FloatVal() < lo {
			return term.Value{}, false, fmt.Errorf("domain")
		}
		mk := member()
		if old, ok := g.retained[mk]; ok && term.Compare(x, old) <= 0 {
			break // not greater than what the contributor retains
		}
		g.retained[mk] = x
		g.inexact = g.inexact || x.Kind() != term.KindInt
		v = g.recompute(m.fn == "mprod")
	case "mmin", "mmax":
		g.history = append(g.history, x)
		sign := 1
		if m.fn == "mmin" {
			sign = -1
		}
		v = g.history[0]
		for _, h := range g.history[1:] {
			if term.Compare(h, v)*sign > 0 {
				v = h
			}
		}
	case "mcount":
		g.retained[member()] = x
		v = term.Int(int64(len(g.retained)))
	case "munion":
		elems := []term.Value{x}
		if x.Kind() == term.KindSet {
			elems = x.SetElems()
		}
		for _, el := range elems {
			m.key([]term.Value{el}, true)
			g.retained[identity(el)] = m.rep[identity(el)]
		}
		var set []term.Value
		for _, el := range g.retained {
			set = append(set, el)
		}
		v = term.Set(set)
	}
	improved := !g.settled || !term.Identical(v, g.value)
	g.value, g.settled = v, true
	return v, improved, nil
}

// recompute is msum's or mprod's value over the retained contributions:
// their exact total while all are ints and it fits an int64, otherwise
// (from then on) the float fold in ascending order.
func (g *modelGroup) recompute(prod bool) term.Value {
	if !g.inexact {
		acc := big.NewInt(0)
		if prod {
			acc.SetInt64(1)
		}
		for _, c := range g.retained {
			if prod {
				acc.Mul(acc, big.NewInt(c.IntVal()))
			} else {
				acc.Add(acc, big.NewInt(c.IntVal()))
			}
		}
		if acc.IsInt64() {
			return term.Int(acc.Int64())
		}
		g.inexact = true
	}
	var fs []float64
	for _, c := range g.retained {
		fs = append(fs, c.FloatVal())
	}
	sort.Float64s(fs)
	acc := 0.0
	if prod {
		acc = 1
	}
	for _, f := range fs {
		if prod {
			acc *= f
		} else {
			acc += f
		}
	}
	return term.Float(acc)
}

// sameBits reports whether a and b are the same value down to a float's
// bits.
func sameBits(a, b term.Value) bool {
	if a.Kind() == term.KindFloat && b.Kind() == term.KindFloat {
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
	}
	return a == b
}

// checkAggAgainstModel decodes ops into updates (and Unsettles) of fn and
// compares AggState with the model after each: the same value bits, the
// same improved flag, an error exactly when the model has one.
func checkAggAgainstModel(t *testing.T, fn string, ops []byte) {
	t.Helper()
	st, m := NewAggState(fn, nil), newAggModel(fn)
	updated := false
	for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
		if ops[0]&0x80 != 0 && updated {
			st.Unsettle()
			m.groups[m.last].settled = false
		}
		group := aggFuzzGroup[int(ops[0]&0x7f)%len(aggFuzzGroup)]
		contrib := aggFuzzContrib[int(ops[1])%len(aggFuzzContrib)]
		x := aggFuzzValue[int(ops[2])%len(aggFuzzValue)]
		v, improved, err := st.Update(group, contrib, x)
		mv, mimproved, merr := m.update(group, contrib, x)
		updated = true
		if (err != nil) != (merr != nil) {
			t.Fatalf("%s step %d: Update(%v, %v, %v) error %v, model error %v", fn, step, group, contrib, x, err, merr)
		}
		if err != nil {
			continue
		}
		if !sameBits(v, mv) || improved != mimproved {
			t.Fatalf("%s step %d: Update(%v, %v, %v) = %v (%s), improved %v; model %v (%s), improved %v",
				fn, step, group, contrib, x, v, v.Kind(), improved, mv, mv.Kind(), mimproved)
		}
	}
	if st.Groups() != len(m.groups) {
		t.Fatalf("%s: %d groups, model %d", fn, st.Groups(), len(m.groups))
	}
}

// FuzzAggState checks every aggregation function against the model on
// mutated update streams; the first byte picks the function.
func FuzzAggState(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for fi := range aggFuncNames {
		seed := make([]byte, 1+3*400)
		rng.Read(seed)
		seed[0] = byte(fi)
		f.Add(seed)
	}
	// msum past int64: MaxInt64-1 from contributor 1, then 5 from contributor 2.
	f.Add([]byte{0, 1, 1, 5, 1, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		checkAggAgainstModel(t, aggFuncNames[int(ops[0])%len(aggFuncNames)], ops[1:min(len(ops), 1+3*2000)])
	})
}

// TestAggStateWarmAllocations pins the warm path: an Update of an existing
// group and contributor allocates nothing, for msum (unchanged and
// improving float sums), mmin and mcount.
func TestAggStateWarmAllocations(t *testing.T) {
	g, c := []term.Value{term.String("g"), term.Int(1)}, []term.Value{term.Int(7)}
	for _, fn := range []string{"msum", "mmin", "mcount"} {
		st := NewAggState(fn, nil)
		st.Update(g, c, term.Float(2.5))
		st.Update(g, []term.Value{term.Int(8)}, term.Float(0.5))
		if n := testing.AllocsPerRun(100, func() { st.Update(g, c, term.Float(2.5)) }); n != 0 {
			t.Errorf("%s: warm Update allocates %v times, want 0", fn, n)
		}
	}
	st := NewAggState("msum", nil)
	x := 1.0
	st.Update(g, c, term.Float(x))
	if n := testing.AllocsPerRun(100, func() {
		x++
		st.Update(g, c, term.Float(x))
	}); n != 0 {
		t.Errorf("msum: improving warm Update allocates %v times, want 0", n)
	}
}

// TestCompiledExprAllocations pins compiled expressions: an assignment
// (operators and a builtin call) and a condition evaluated on a bound
// binding allocate nothing.
func TestCompiledExprAllocations(t *testing.T) {
	cr, _ := compileFirst(t, `p(X), Y = abs(X - 9) * 2 + 1, Y > 3 -> q(Y).`)
	b := NewBinding(cr)
	b.Set(cr.VarSlot["X"], term.Int(5))
	var mt Matcher
	if err := mt.evalAssign(cr, 0, b); err != nil || b.Val(cr.VarSlot["Y"]) != term.Int(9) {
		t.Fatalf("Y = %v (err %v), want 9", b.Val(cr.VarSlot["Y"]), err)
	}
	if ok, err := cr.Conds[0].Holds(b); !ok || err != nil {
		t.Fatalf("9 > 3: %v (err %v)", ok, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		mt.evalAssign(cr, 0, b)
		cr.Conds[0].Holds(b)
	}); n != 0 {
		t.Errorf("compiled assignment and condition allocate %v times, want 0", n)
	}
}
