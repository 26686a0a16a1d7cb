package eval

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/term"
)

// bindingSnap is a binding as a restored binding must reproduce it: per
// slot whether it is bound, whether it holds a computed value, and the
// value; then the matched parents and rows.
type bindingSnap struct {
	bound, hasVal []bool
	vals          []term.Value
	parents       []*core.FactMeta
	rows          []int32
}

// snap copies b's first n slots (all of them when n exceeds the binding:
// the rest read as unbound).
func snap(b *Binding, n int) bindingSnap {
	s := bindingSnap{make([]bool, n), make([]bool, n), make([]term.Value, n),
		append([]*core.FactMeta(nil), b.Parents...), append([]int32(nil), b.ParentRows...)}
	for i := 0; i < n && i < len(b.Bound); i++ {
		if b.Bound[i] {
			s.bound[i], s.hasVal[i], s.vals[i] = true, b.hasVal[i], b.Val(i)
		}
	}
	return s
}

// TestBindingLogRoundTrip captures the matches of a rule pinned to each e
// fact in turn and restores them, last first, into a dirtied binding: slot
// states, values, parents and matched rows must come back exactly — matched
// slots as IDs, computed slots as values, and nothing else in the value
// array.
func TestBindingLogRoundTrip(t *testing.T) {
	facts := []ast.Fact{
		ast.NewFact("e", term.Int(1), term.Int(2)),
		ast.NewFact("e", term.Int(2), term.Int(3)),
		ast.NewFact("f", term.Int(2), term.String("a")),
		ast.NewFact("f", term.Int(3), term.String("b")),
		ast.NewFact("f", term.Int(3), term.Float(0.5)),
	}
	const member = `e(X,Y), f(Y,Z), W = X + Y -> p(W,Z).`
	for _, tc := range []struct {
		name, src string
		set       string   // bound to a computed value before each capture, as Emit binds an aggregate result
		computed  []string // variables that must come back as values; every other bound slot as an ID
		unbound   []string // variables that must come back unbound
		wide      string   // restore into a binding of this CSE member rule instead
	}{
		{name: "matched slots only", src: `e(X,Y), f(Y,Z) -> p(X,Z).`},
		{name: "assignment", src: member, computed: []string{"W"}},
		{name: "aggregate result", src: `e(X,Y), f(Y,Z), V = msum(X,<Y>) -> p(Z,V).`, set: "V", computed: []string{"V"}},
		{name: "unbound slots", src: `e(X,Y), f(Y,Z), V = msum(X,<Y>) -> p(Z,V,N).`, unbound: []string{"V", "N"}},
		{name: "wider member binding", src: `e(X,Y), f(Y,Z) -> p(X,Z).`, wide: member},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cr, res := compileFirst(t, tc.src)
			db := loadDB(t, res, facts...)
			mt, steps := &Matcher{DB: db}, cr.ScheduleFor(0, nil)
			b, target, n := NewBinding(cr), NewBinding(cr), cr.NSlots
			if tc.wide != "" {
				wcr, _ := compileFirst(t, tc.wide)
				if wcr.NBodySlots() != cr.NSlots || wcr.NSlots <= cr.NSlots {
					t.Fatalf("member has %d body slots of %d, the log's rule %d", wcr.NBodySlots(), wcr.NSlots, cr.NSlots)
				}
				target, n = NewBinding(wcr), wcr.NSlots
			}
			var lg BindingLog
			lg.Shape(cr)
			var want []bindingSnap
			capture := func(b *Binding) error {
				if tc.set != "" {
					b.Set(cr.VarSlot[tc.set], term.Int(int64(100+lg.Len())))
				}
				want = append(want, snap(b, n))
				lg.Capture(b)
				return nil
			}
			fire := func(i int) {
				if err := mt.MatchPinned(cr, 0, db.Lookup("e").At(i), steps, b, capture); err != nil {
					t.Fatal(err)
				}
			}
			fire(0)
			fire(1)
			if lg.Len() != 3 {
				t.Fatalf("captured %d bindings, want 3", lg.Len())
			}
			if got := len(tc.computed) * lg.Len(); len(lg.vals) != got {
				t.Errorf("the log holds %d values, want %d: computed slots only", len(lg.vals), got)
			}
			for i := lg.Len() - 1; i >= 0; i-- {
				for s := range target.Bound {
					target.Set(s, term.String("stale"))
				}
				lg.Restore(i, db.Interner(), target)
				if got := snap(target, n); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("entry %d restored as %+v, want %+v", i, got, want[i])
				}
			}
			for v, s := range cr.VarSlot {
				if want[0].hasVal[s] != slices.Contains(tc.computed, v) || want[0].bound[s] == slices.Contains(tc.unbound, v) {
					t.Errorf("%s captured as bound=%v hasVal=%v", v, want[0].bound[s], want[0].hasVal[s])
				}
			}
			if len(tc.computed) == 0 {
				// Warm buffers, matched slots only: IDs and pointers are
				// copied, no value is decoded, nothing is allocated.
				plain := func(b *Binding) error {
					lg.Capture(b)
					return nil
				}
				allocs := testing.AllocsPerRun(50, func() {
					lg.Reset()
					lg.Shape(cr)
					if err := mt.MatchPinned(cr, 0, db.Lookup("e").At(1), steps, b, plain); err != nil {
						t.Fatal(err)
					}
					lg.Restore(1, db.Interner(), target)
				})
				if allocs != 0 {
					t.Errorf("Capture+Restore of a matched-only binding costs %.0f allocations, want 0", allocs)
				}
			}
			// Reset must not keep the batch reachable through the buffers.
			lg.Reset()
			lg.Shape(cr)
			for _, p := range lg.parents[:cap(lg.parents)] {
				if p != nil {
					t.Fatal("Reset left a *core.FactMeta reachable through the parents buffer")
				}
			}
			for _, v := range lg.vals[:cap(lg.vals)] {
				if v != (term.Value{}) {
					t.Fatal("Reset left a term.Value reachable through the value buffer")
				}
			}
		})
	}
}

// TestBindingLogRanges captures the matches of rules of different shapes —
// slot counts and matched-atom counts — into one log, range after range, as
// the chase does for a batch: every entry must restore exactly as it does
// from a log of its rule alone, and each range's canonical order must be
// that log's, shifted by the range's start.
func TestBindingLogRanges(t *testing.T) {
	facts := []ast.Fact{
		ast.NewFact("e", term.Int(1), term.Int(2)),
		ast.NewFact("e", term.Int(2), term.Int(3)),
		ast.NewFact("e", term.Int(1), term.Int(3)),
		ast.NewFact("f", term.Int(3), term.String("b")),
		ast.NewFact("f", term.Int(2), term.String("a")),
		ast.NewFact("f", term.Int(3), term.Float(0.5)),
	}
	srcs := []string{
		`e(X,Y), f(Y,Z) -> p(X,Z).`,
		`e(X,Y) -> r(Y,X).`,
		`f(Y,Z), e(X,Y), e(X,V), W = X + V -> q(W,Z).`,
	}
	var crs []*CompiledRule
	for _, src := range srcs {
		cr, _ := compileFirst(t, src)
		crs = append(crs, cr)
	}
	_, res := compileFirst(t, srcs[0])
	db := loadDB(t, res, facts...)
	mt := &Matcher{DB: db}
	captureAll := func(lg *BindingLog, cr *CompiledRule) {
		b := NewBinding(cr)
		rel := db.Lookup(cr.Pos[0].Pred)
		for i := 0; i < rel.Len(); i++ {
			if err := mt.MatchPinned(cr, 0, rel.At(i), cr.ScheduleFor(0, nil), b, func(b *Binding) error {
				lg.Capture(b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var all BindingLog
	var perm []int32
	for _, cr := range crs {
		var alone BindingLog
		alone.Shape(cr)
		captureAll(&alone, cr)
		lo := all.Len()
		all.Shape(cr)
		captureAll(&all, cr)
		hi := all.Len()
		if hi-lo != alone.Len() || alone.Len() < 2 {
			t.Fatalf("%s: range [%d,%d) for %d matches alone", cr.Rule, lo, hi, alone.Len())
		}
		perm = all.CanonicalOrder(perm, lo, hi)
		want := alone.CanonicalOrder(nil, 0, alone.Len())
		for k, i := range want {
			if perm[lo+k] != i+int32(lo) {
				t.Errorf("%s: range order %v, want %v shifted by %d", cr.Rule, perm[lo:hi], want, lo)
				break
			}
		}
		got, exp := NewBinding(cr), NewBinding(cr)
		for k := 0; k < alone.Len(); k++ {
			all.Restore(lo+k, db.Interner(), got)
			alone.Restore(k, db.Interner(), exp)
			if g, w := snap(got, cr.NSlots), snap(exp, cr.NSlots); !reflect.DeepEqual(g, w) {
				t.Errorf("%s: entry %d restored as %+v, want %+v", cr.Rule, lo+k, g, w)
			}
		}
	}
	if len(perm) != all.Len() {
		t.Errorf("the ranges' orders hold %d entries, the log %d", len(perm), all.Len())
	}
}
