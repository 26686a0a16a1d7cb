package eval

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
)

func compileFirst(t *testing.T, src string) (*CompiledRule, *analysis.Result) {
	t.Helper()
	prog := parser.MustParse(src)
	res := analysis.Analyze(prog)
	cr, err := Compile(prog.Rules[0], res.Rules[0])
	if err != nil {
		t.Fatal(err)
	}
	return cr, res
}

func loadDB(t *testing.T, res *analysis.Result, facts ...ast.Fact) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	strat := core.NewStrategy(res)
	for _, f := range facts {
		db.InsertEDB(f.Pred, f.Args, strat)
	}
	return db
}

func collectMatches(t *testing.T, cr *CompiledRule, db *storage.Database, pinned int, m *core.FactMeta) [][]term.Value {
	t.Helper()
	mt := &Matcher{DB: db}
	b := NewBinding(cr)
	var out [][]term.Value
	err := mt.MatchPinned(cr, pinned, m, cr.ScheduleFor(pinned, nil), b, func(b *Binding) error {
		row := make([]term.Value, len(b.IDs))
		for s := range row {
			if b.Bound[s] {
				row[s] = b.Val(s)
			}
		}
		out = append(out, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompileSlots(t *testing.T) {
	cr, _ := compileFirst(t, `p(X,Y), q(Y,Z), Z > 1 -> r(X,Z).`)
	if len(cr.Pos) != 2 || len(cr.Conds) != 1 || len(cr.Heads) != 1 {
		t.Fatalf("shape: pos=%d conds=%d heads=%d", len(cr.Pos), len(cr.Conds), len(cr.Heads))
	}
	if cr.NSlots != 3 {
		t.Fatalf("slots: %d", cr.NSlots)
	}
}

// TestAnonymousSlotsAreFresh: every _ gets a slot of its own that no
// variable name maps to, so a variable named like the slot of a _ — the
// name a _ at atom 0, position 1 once got — stays a variable of its own.
func TestAnonymousSlotsAreFresh(t *testing.T) {
	cr, _ := compileFirst(t, `p(_anon0_1, _), q(_anon0_1, _) -> r(_anon0_1).`)
	if cr.NSlots != 3 || len(cr.VarSlot) != 1 {
		t.Fatalf("%d slots, names %v: want 3 slots, one named", cr.NSlots, cr.VarSlot)
	}
	v, p, q := cr.VarSlot["_anon0_1"], cr.Pos[0].Slot[1], cr.Pos[1].Slot[1]
	if v == p || v == q || p == q {
		t.Fatalf("slots: variable %d, anonymous %d and %d, want three distinct", v, p, q)
	}
}

func TestMatchJoin(t *testing.T) {
	cr, res := compileFirst(t, `p(X,Y), q(Y,Z) -> r(X,Z).`)
	db := loadDB(t, res,
		ast.NewFact("p", term.Int(1), term.Int(2)),
		ast.NewFact("p", term.Int(5), term.Int(6)),
		ast.NewFact("q", term.Int(2), term.Int(3)),
		ast.NewFact("q", term.Int(2), term.Int(4)),
	)
	rel := db.Lookup("p")
	got := collectMatches(t, cr, db, 0, rel.At(0)) // p(1,2)
	if len(got) != 2 {
		t.Fatalf("matches: %d, want 2", len(got))
	}
	got = collectMatches(t, cr, db, 0, rel.At(1)) // p(5,6): no q(6,_)
	if len(got) != 0 {
		t.Fatalf("matches: %d, want 0", len(got))
	}
}

func TestMatchRepeatedVariable(t *testing.T) {
	cr, res := compileFirst(t, `p(X,X) -> r(X).`)
	db := loadDB(t, res,
		ast.NewFact("p", term.Int(1), term.Int(1)),
		ast.NewFact("p", term.Int(1), term.Int(2)),
	)
	rel := db.Lookup("p")
	if got := collectMatches(t, cr, db, 0, rel.At(0)); len(got) != 1 {
		t.Fatalf("p(1,1) must match: %d", len(got))
	}
	if got := collectMatches(t, cr, db, 0, rel.At(1)); len(got) != 0 {
		t.Fatalf("p(1,2) must not match: %d", len(got))
	}
}

func TestMatchConstantInAtom(t *testing.T) {
	cr, res := compileFirst(t, `p(a, Y) -> r(Y).`)
	db := loadDB(t, res,
		ast.NewFact("p", term.String("a"), term.Int(1)),
		ast.NewFact("p", term.String("b"), term.Int(2)),
	)
	rel := db.Lookup("p")
	if got := collectMatches(t, cr, db, 0, rel.At(1)); len(got) != 0 {
		t.Fatal("constant mismatch must fail")
	}
	if got := collectMatches(t, cr, db, 0, rel.At(0)); len(got) != 1 {
		t.Fatal("constant match must succeed")
	}
}

func TestConditionPushdown(t *testing.T) {
	// The schedule must evaluate X > 3 before matching q (selection
	// push-down): we verify by behaviour — no q facts needed to reject.
	cr, _ := compileFirst(t, `p(X), X > 3, q(X,Y) -> r(Y).`)
	sched := cr.ScheduleFor(0, nil)
	condPos, matchPos := -1, -1
	for i, st := range sched {
		if st.Kind == StepCond && condPos == -1 {
			condPos = i
		}
		if st.Kind == StepMatch && matchPos == -1 {
			matchPos = i
		}
	}
	if condPos == -1 || matchPos == -1 || condPos > matchPos {
		t.Fatalf("condition not pushed down: %v", sched)
	}
}

func TestExistentialSkolemDeterminism(t *testing.T) {
	cr, res := compileFirst(t, `p(X) -> q(X, Z).`)
	db := loadDB(t, res, ast.NewFact("p", term.String("a")))
	mt := &Matcher{DB: db}
	b := NewBinding(cr)
	rel := db.Lookup("p")
	var first, second term.Value
	for round := 0; round < 2; round++ {
		err := mt.MatchPinned(cr, 0, rel.At(0), cr.ScheduleFor(0, nil), b, func(b *Binding) error {
			mt.InstantiateExistentials(cr, b)
			row, miss, err := b.AppendHeadRow(nil, cr, 0, nil)
			if err != nil {
				return err
			}
			// The fresh null occurs in no stored fact: the builder reports
			// it as a miss instead of interning it.
			if row[1] != 0 || miss == nil {
				t.Errorf("round %d: row %v miss %v, want an uninterned null at position 1", round, row, miss)
			}
			head := RowFact("q", make([]term.Value, len(row)), row, db.Interner(), miss)
			if round == 0 {
				first = head.Args[1]
			} else {
				second = head.Args[1]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !first.IsNull() {
		t.Fatal("existential must be a null")
	}
	if first != second {
		t.Error("skolem nulls must be deterministic across re-evaluation")
	}
}

func TestWardFirstParents(t *testing.T) {
	prog := parser.MustParse(`
		c(X) -> w(X, N).
		w(X, N), e(X, Y) -> w(Y, N).
	`)
	res := analysis.Analyze(prog)
	cr, err := Compile(prog.Rules[1], res.Rules[1])
	if err != nil {
		t.Fatal(err)
	}
	if cr.WardPos != 0 {
		t.Fatalf("ward pos: %d", cr.WardPos)
	}
	b := NewBinding(cr)
	w := &core.FactMeta{Fact: ast.NewFact("w", term.String("a"), term.Null(1))}
	e := &core.FactMeta{Fact: ast.NewFact("e", term.String("a"), term.String("b"))}
	b.Parents[0] = w
	b.Parents[1] = e
	parents := WardFirstParentsAppend(cr, b, nil)
	if parents[0] != w {
		t.Error("ward parent must come first")
	}
}

func TestAggStateMSum(t *testing.T) {
	st := NewAggState("msum", nil)
	g := []term.Value{term.Int(1)}
	// Same contributor y=2 contributes max(5,3)=5; y=3 adds 7.
	v, improved, err := st.Update(g, []term.Value{term.Int(2)}, term.Int(5))
	if err != nil || v != term.Int(5) || !improved {
		t.Fatalf("v=%v improved=%v err=%v", v, improved, err)
	}
	v, improved, _ = st.Update(g, []term.Value{term.Int(2)}, term.Int(3))
	if v != term.Int(5) {
		t.Errorf("non-improving contribution changed the sum: %v", v)
	}
	if improved {
		t.Error("non-improving contribution reported improved")
	}
	v, improved, _ = st.Update(g, []term.Value{term.Int(3)}, term.Int(7))
	if v != term.Int(12) || !improved {
		t.Errorf("sum: %v (improved=%v), want 12", v, improved)
	}
	// Improvement for contributor 2: 5 -> 6.
	v, improved, _ = st.Update(g, []term.Value{term.Int(2)}, term.Int(6))
	if v != term.Int(13) || !improved {
		t.Errorf("sum after improvement: %v (improved=%v), want 13", v, improved)
	}
	if st.Groups() != 1 {
		t.Errorf("groups: %d", st.Groups())
	}
	// An exact sum past int64 folds floats instead of wrapping around.
	g2 := []term.Value{term.Int(2)}
	st.Update(g2, []term.Value{term.Int(1)}, term.Int(math.MaxInt64-1))
	v, improved, err = st.Update(g2, []term.Value{term.Int(2)}, term.Int(5))
	if err != nil || !improved || v != term.Float(float64(math.MaxInt64-1)+5) {
		t.Errorf("overflowing msum: %v (improved=%v, err=%v), want %v as a float", v, improved, err, float64(math.MaxInt64-1)+5)
	}
}

func TestAggStateDomainErrors(t *testing.T) {
	st := NewAggState("msum", nil)
	if _, _, err := st.Update(nil, nil, term.Int(-1)); err == nil {
		t.Error("msum over a negative contribution must error (monotonicity)")
	}
	pr := NewAggState("mprod", nil)
	if _, _, err := pr.Update(nil, nil, term.Float(0.5)); err == nil {
		t.Error("mprod over a contribution < 1 must error (monotonicity)")
	}
	if _, _, err := pr.Update(nil, nil, term.Int(0)); err == nil {
		t.Error("mprod over 0 must error, not poison the product forever")
	}
}

func TestAggStateMProdInt(t *testing.T) {
	st := NewAggState("mprod", nil)
	st.Update(nil, []term.Value{term.Int(1)}, term.Int(2))
	v, _, err := st.Update(nil, []term.Value{term.Int(2)}, term.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if v != term.Int(6) {
		t.Errorf("mprod over ints must return an int: %v (%s)", v, v.Kind())
	}
	// Improvement for contributor 1: 2 -> 4; the old factor divides out
	// exactly (contributions ≥ 1).
	v, _, _ = st.Update(nil, []term.Value{term.Int(1)}, term.Int(4))
	if v != term.Int(12) {
		t.Errorf("mprod after improvement: %v, want 12", v)
	}
	// A float contribution switches to deterministic float recomputation.
	v, _, _ = st.Update(nil, []term.Value{term.Int(3)}, term.Float(1.5))
	if v != term.Float(4*3*1.5) {
		t.Errorf("mixed mprod: %v", v)
	}
}

// TestAggStateKeyCollision: group/contributor keys are interned-ID based,
// so string values whose renderings collide under a separator-joined
// encoding (the old keyOf) stay distinct groups.
func TestAggStateKeyCollision(t *testing.T) {
	st := NewAggState("msum", nil)
	g1 := []term.Value{term.String("a\x00b"), term.String("c")}
	g2 := []term.Value{term.String("a"), term.String("b\x00c")}
	v1, _, _ := st.Update(g1, nil, term.Int(1))
	v2, _, _ := st.Update(g2, nil, term.Int(2))
	if st.Groups() != 2 {
		t.Fatalf("colliding renderings merged groups: %d groups", st.Groups())
	}
	if v1 != term.Int(1) {
		t.Errorf("g1: %v", v1)
	}
	if v2 != term.Int(2) {
		t.Errorf("g2: %v", v2)
	}
}

// TestAggStateMunionFlattensSets: a set-valued contribution unions its
// elements, so aggregates consuming an improving set stream converge to
// the union of the final sets regardless of which intermediates were seen.
func TestAggStateMunionFlattensSets(t *testing.T) {
	st := NewAggState("munion", nil)
	st.Update(nil, nil, term.Set([]term.Value{term.String("a")}))
	st.Update(nil, nil, term.Set([]term.Value{term.String("a"), term.String("b")}))
	v, improved, err := st.Update(nil, nil, term.String("c"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != "{a,b,c}" || !improved {
		t.Errorf("flattened munion: %v (improved=%v)", v, improved)
	}
	// Re-feeding a subset of what is already absorbed does not improve.
	_, improved, _ = st.Update(nil, nil, term.Set([]term.Value{term.String("b")}))
	if improved {
		t.Error("subset contribution reported improved")
	}
}

// TestAggStateFloatDeterminism: float sums are recomputed over the
// retained contributions in sorted order, so any arrival order yields the
// bit-identical value.
func TestAggStateFloatDeterminism(t *testing.T) {
	vals := []float64{0.1, 0.7, 1e-9, 3.3, 0.2, 1e9, 0.9}
	perms := [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {3, 0, 6, 2, 5, 1, 4}}
	var want term.Value
	for pi, perm := range perms {
		st := NewAggState("msum", nil)
		var last term.Value
		for _, i := range perm {
			last, _, _ = st.Update(nil, []term.Value{term.Int(int64(i))}, term.Float(vals[i]))
		}
		if pi == 0 {
			want = last
		} else if last != want {
			t.Errorf("perm %d: %v != %v (order-dependent float rounding)", pi, last, want)
		}
	}
}

func TestAggStateOrderIndependence(t *testing.T) {
	// Property: the final msum value is the same for any arrival order.
	type upd struct {
		c, x int64
	}
	updates := []upd{{1, 5}, {1, 3}, {2, 7}, {3, 2}, {2, 1}, {3, 9}}
	perms := [][]int{
		{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {2, 0, 5, 1, 4, 3}, {3, 5, 0, 4, 2, 1},
	}
	var want term.Value
	for pi, perm := range perms {
		st := NewAggState("msum", nil)
		var last term.Value
		for _, i := range perm {
			u := updates[i]
			v, _, err := st.Update(nil, []term.Value{term.Int(u.c)}, term.Int(u.x))
			if err != nil {
				t.Fatal(err)
			}
			last = v
		}
		if pi == 0 {
			want = last
		} else if last != want {
			t.Errorf("perm %d: final %v, want %v", pi, last, want)
		}
	}
	if want != term.Int(5+7+9) {
		t.Errorf("final: %v, want 21", want)
	}
}

func TestAggStateMinMaxCountUnion(t *testing.T) {
	min := NewAggState("mmin", nil)
	min.Update(nil, nil, term.Int(5))
	v, _, _ := min.Update(nil, nil, term.Int(2))
	if v != term.Int(2) {
		t.Errorf("mmin: %v", v)
	}
	max := NewAggState("mmax", nil)
	max.Update(nil, nil, term.Int(5))
	v, _, _ = max.Update(nil, nil, term.Int(2))
	if v != term.Int(5) {
		t.Errorf("mmax: %v", v)
	}
	cnt := NewAggState("mcount", nil)
	cnt.Update(nil, nil, term.String("a"))
	cnt.Update(nil, nil, term.String("a"))
	v, _, _ = cnt.Update(nil, nil, term.String("b"))
	if v != term.Int(2) {
		t.Errorf("mcount distinct: %v", v)
	}
	un := NewAggState("munion", nil)
	un.Update(nil, nil, term.String("b"))
	v, _, _ = un.Update(nil, nil, term.String("a"))
	if v.Str() != "{a,b}" {
		t.Errorf("munion canonical: %v", v)
	}
}

func TestNullSubstUnionFind(t *testing.T) {
	ns := NewNullSubst()
	if !ns.Empty() {
		t.Fatal("fresh subst must be empty")
	}
	if err := ns.Unify(term.Null(1), term.Null(2)); err != nil {
		t.Fatal(err)
	}
	if ns.Resolve(term.Null(1)) != ns.Resolve(term.Null(2)) {
		t.Error("unified nulls must resolve equally")
	}
	if err := ns.Unify(term.Null(2), term.String("bob")); err != nil {
		t.Fatal(err)
	}
	if ns.Resolve(term.Null(1)) != term.String("bob") {
		t.Errorf("resolve: %v", ns.Resolve(term.Null(1)))
	}
	if err := ns.Unify(term.Null(1), term.String("alice")); err == nil {
		t.Error("conflicting constants must error")
	}
	if len(ns.SortedGroundings()) != 1 {
		t.Errorf("groundings: %v", ns.SortedGroundings())
	}
}

func TestNegationLookup(t *testing.T) {
	cr, res := compileFirst(t, `p(X), not q(X, _) -> r(X).`)
	db := loadDB(t, res,
		ast.NewFact("p", term.Int(1)),
		ast.NewFact("p", term.Int(2)),
		ast.NewFact("q", term.Int(2), term.Int(9)),
	)
	rel := db.Lookup("p")
	if got := collectMatches(t, cr, db, 0, rel.At(0)); len(got) != 1 {
		t.Error("p(1) has no q: must match")
	}
	if got := collectMatches(t, cr, db, 0, rel.At(1)); len(got) != 0 {
		t.Error("p(2) has q(2,9): must not match")
	}
}

// TestAggStateMProdOverflowDegrades: the exact-int product must not wrap
// around int64; it degrades to the deterministic float fold instead.
func TestAggStateMProdOverflowDegrades(t *testing.T) {
	st := NewAggState("mprod", nil)
	var v term.Value
	for i := 0; i < 70; i++ {
		var err error
		v, _, err = st.Update(nil, []term.Value{term.Int(int64(i))}, term.Int(2))
		if err != nil {
			t.Fatal(err)
		}
		if v.Kind() == term.KindInt && v.IntVal() <= 0 {
			t.Fatalf("int mprod wrapped around after %d contributions: %v", i+1, v)
		}
	}
	if v.Kind() != term.KindFloat || v.FloatVal() != math.Pow(2, 70) {
		t.Errorf("overflowed mprod: %v, want 2^70 as float", v)
	}
}
