package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/term"
)

// TestIsoEqualMatchesIsomorphic is the property G relies on: IsoEqual
// agrees with the bijection search of ast.Isomorphic, and isomorphic facts
// hash alike.
func TestIsoEqualMatchesIsomorphic(t *testing.T) {
	f1 := ast.NewFact("p", term.String("a"), term.Null(1))
	f2 := ast.NewFact("p", term.String("a"), term.Null(2))
	f3 := ast.NewFact("p", term.String("b"), term.Null(1))
	if !IsoEqual(f1, f2) || IsoHash(f1) != IsoHash(f2) {
		t.Error("isomorphic facts must be IsoEqual and hash alike")
	}
	if IsoEqual(f1, f3) {
		t.Error("IsoEqual must distinguish constants")
	}
	rng := rand.New(rand.NewSource(4))
	genFact := func() ast.Fact {
		n := 1 + rng.Intn(4)
		args := make([]term.Value, n)
		for i := range args {
			if rng.Intn(2) == 0 {
				args[i] = term.String(string(rune('a' + rng.Intn(3))))
			} else {
				args[i] = term.Null(int64(rng.Intn(3)))
			}
		}
		return ast.Fact{Pred: "p", Args: args}
	}
	for i := 0; i < 3000; i++ {
		a, b := genFact(), genFact()
		iso := IsoEqual(a, b)
		if iso != ast.Isomorphic(a, b) {
			t.Fatalf("%v vs %v: IsoEqual %v, ast.Isomorphic %v", a, b, iso, !iso)
		}
		if iso && IsoHash(a) != IsoHash(b) {
			t.Fatalf("isomorphic %v and %v hash apart", a, b)
		}
	}
}

// TestIsoHashQuick: renaming nulls consistently preserves the iso class and
// its hash.
func TestIsoHashQuick(t *testing.T) {
	f := func(a, b, c uint8) bool {
		base := ast.NewFact("p", term.Null(int64(a%4)+1), term.Null(int64(b%4)+1), term.Int(int64(c)))
		shift := ast.NewFact("p", term.Null(int64(a%4)+100), term.Null(int64(b%4)+100), term.Int(int64(c)))
		return IsoEqual(base, shift) && IsoHash(base) == IsoHash(shift)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIdentityNotRendering pins the conflations rendered keys made and
// value identity does not: Int(1) and Float(1.0) render alike, so do
// String("d5") and Date(5); they are distinct values, hence distinct
// iso classes. NaN, which == never equates, is one value, and -0.0 is 0.0.
func TestIdentityNotRendering(t *testing.T) {
	n := term.Null(1)
	for _, c := range [][2]term.Value{
		{term.Int(1), term.Float(1)},
		{term.String("d5"), term.Date(5)},
		{term.String("1"), term.Int(1)},
		{term.Bool(true), term.Int(1)},
	} {
		a, b := ast.NewFact("r", c[0], n), ast.NewFact("r", c[1], n)
		if IsoEqual(a, b) {
			t.Errorf("%v %v and %v %v must be different iso classes", c[0].Kind(), c[0], c[1].Kind(), c[1])
		}
	}
	for _, c := range [][2]term.Value{
		{term.Float(math.NaN()), term.Float(-math.NaN())},
		{term.Float(0), term.Float(math.Copysign(0, -1))},
	} {
		a, b := ast.NewFact("r", c[0], n), ast.NewFact("r", c[1], term.Null(2))
		if !IsoEqual(a, b) || IsoHash(a) != IsoHash(b) {
			t.Errorf("r(%v,_) and r(%v,_) must be one iso class", c[0], c[1])
		}
	}
}

// TestPatternEqual pins the paper's pattern example on the value-space
// pattern: constants and nulls both numbered by first occurrence.
func TestPatternEqual(t *testing.T) {
	f1 := ast.NewFact("p", term.Int(1), term.Int(2), term.Null(3), term.Null(4))
	f2 := ast.NewFact("p", term.Int(3), term.Int(4), term.Null(9), term.Null(4))
	f3 := ast.NewFact("p", term.Int(5), term.Int(5), term.Null(1), term.Null(2))
	if !patternEqual(f1, f2) || patternHash(f1) != patternHash(f2) {
		t.Error("pattern-isomorphic facts must share a pattern (paper example)")
	}
	if patternEqual(f1, f3) {
		t.Error("repeated constants change the pattern (paper example)")
	}
}

// TestChainsKeepCollisionsApart builds two non-isomorphic facts into one G
// chain and two patterns into one S chain — what a hash collision would do —
// and requires every decision to stay exact: a fact is cut only by an entry
// it is isomorphic to, in its own tree, and a stop-provenance applies only
// to its own pattern.
func TestChainsKeepCollisionsApart(t *testing.T) {
	res := analyzed(t, `
		p(X, N) -> p(X, M).
		q(X, Y, N) -> q(X, Y, M).
	`)
	s := NewStrategy(res)
	nulls := term.NewNullFactory()
	root := s.NewEDBFact(ast.NewFact("p", term.String("a"), term.String("seed")))
	derive := func(parent *FactMeta, rule int, args ...term.Value) *FactMeta {
		return s.Derive(ast.Fact{Pred: parent.Fact.Pred, Args: args}, rule, []*FactMeta{parent})
	}
	// collide moves m's G chain head onto the one of into, as if the two
	// hashes had collided.
	collide := func(m, into *FactMeta) {
		s.ground[isoHash(m.WRoot.id, m.Fact)] = s.ground[isoHash(into.WRoot.id, into.Fact)]
	}

	a := derive(root, 0, term.String("a"), nulls.Fresh())
	if !s.CheckTermination(a) {
		t.Fatal("first fact of the tree must be admitted")
	}
	b := derive(root, 0, term.String("b"), nulls.Fresh()) // not isomorphic to a
	collide(b, a)
	if !s.CheckTermination(b) {
		t.Fatal("a non-isomorphic fact sharing a's chain must be admitted")
	}
	other := s.NewEDBFact(ast.NewFact("p", term.String("a"), term.String("other")))
	o := derive(other, 0, term.String("a"), nulls.Fresh())
	collide(o, a)
	if !s.CheckTermination(o) {
		t.Fatal("an isomorphic entry of another warded tree must not cut")
	}
	a2 := derive(a, 0, term.String("a"), nulls.Fresh())
	collide(a2, b) // a's chain is b -> a now
	if s.CheckTermination(a2) {
		t.Fatal("a fact isomorphic to an entry further down the chain must be cut")
	}
	if st := s.Stats(); st.IsoHits != 1 || st.GroundFacts != 3 || st.Patterns != 1 {
		t.Fatalf("stats %+v, want 1 iso hit, 3 ground facts, 1 pattern", st)
	}

	// S: q(X,Y,N) roots have another pattern than p's; put it in p's chain.
	qroot := s.NewEDBFact(ast.NewFact("q", term.String("c"), term.String("d"), term.String("seed")))
	s.summary[qroot.patternHash()] = s.summary[root.patternHash()]
	if s.findPattern(qroot) != nil {
		t.Fatal("another pattern sharing the chain must not find p's stop-provenances")
	}
	q1 := derive(qroot, 1, term.String("c"), term.String("d"), nulls.Fresh())
	if !s.CheckTermination(q1) {
		t.Fatal("q's first derivation must be admitted")
	}
	if s.CheckTermination(derive(q1, 1, term.String("c"), term.String("d"), nulls.Fresh())) {
		t.Fatal("q's isomorphic repetition must be cut")
	}
	if st := s.Stats(); st.Patterns != 2 || s.SummarySize() != 2 {
		t.Fatalf("patterns %d, summary size %d, want 2 and 2", st.Patterns, s.SummarySize())
	}
	if s.findPattern(qroot) == s.findPattern(root) {
		t.Fatal("two patterns in one chain must keep their own stop-provenances")
	}
}

// TestCheckTerminationAllocations pins the guide structures' cost: on a
// warm strategy a termination check — a G miss that stores the fact, a G
// hit, a cut by a stop-provenance — allocates nothing (G and S grow by
// amortized appends), and a linear derivation along an existing path
// allocates its FactMeta and nothing else.
func TestCheckTerminationAllocations(t *testing.T) {
	res := analyzed(t, `p(X, N) -> p(X, M).`)
	const n = 2000
	build := func(s *Strategy) []*FactMeta {
		root := s.NewEDBFact(ast.NewFact("p", term.String("a"), term.String("seed")))
		metas := make([]*FactMeta, n+1)
		for i := range metas {
			metas[i] = s.Derive(ast.NewFact("p", term.Int(int64(i)), term.Null(int64(i+1))), 0, []*FactMeta{root})
		}
		return metas
	}
	for _, tc := range []struct {
		name    string
		summary bool
		admit   bool // the measured checks admit
	}{
		{"miss", true, true},
		{"hit", false, false},
		{"beyond stop", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStrategy(res)
			s.DisableSummary = !tc.summary
			metas := build(s)
			if !tc.admit {
				for _, m := range metas {
					s.CheckTermination(m)
				}
				// Isomorphic copies, one step further down the path.
				for i, m := range metas {
					metas[i] = s.Derive(ast.NewFact("p", m.Fact.Args[0], term.Null(int64(n+10+i))), 0, []*FactMeta{m})
				}
			}
			next := 0
			got := testing.AllocsPerRun(n, func() {
				if s.CheckTermination(metas[next]) != tc.admit {
					t.Fatalf("check %d: want admitted=%v", next, tc.admit)
				}
				next++
			})
			if got != 0 {
				t.Errorf("a warm termination check costs %.0f allocations, want 0", got)
			}
		})
	}

	s := NewStrategy(res)
	root := s.NewEDBFact(ast.NewFact("p", term.String("a"), term.String("seed")))
	f := ast.NewFact("p", term.String("a"), term.Null(1))
	m := s.Derive(f, 0, []*FactMeta{root})
	parents := []*FactMeta{m}
	s.Derive(f, 0, parents) // the path rule 0, rule 0 exists from here on
	if got := testing.AllocsPerRun(100, func() { s.Derive(f, 0, parents) }); got != 0 {
		t.Errorf("a linear derivation along an existing path costs %.0f allocations, want 0 (its FactMeta comes from the strategy's arena)", got)
	}
	if got := s.Derive(f, 0, parents).Provenance.AppendRules(nil); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("provenance %v, want [0 0]", got)
	}
}
