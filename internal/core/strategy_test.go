package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

func analyzed(t *testing.T, src string) *analysis.Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Analyze(prog)
}

func TestProvTrie(t *testing.T) {
	tr := &provTrie{}
	tr.insert([]int{1, 2, 3})
	cases := []struct {
		prov           []int
		beyond, within bool
	}{
		{[]int{1, 2, 3}, true, false},    // equal: beyond (λ ⊆ p)
		{[]int{1, 2, 3, 4}, true, false}, // extension: beyond
		{[]int{1, 2}, false, true},       // strict prefix: within
		{[]int{1}, false, true},          // strict prefix: within
		{[]int{}, false, true},           // empty prefix: within
		{[]int{2, 1}, false, false},      // unrelated
		{[]int{1, 3}, false, false},      // diverging
	}
	for _, c := range cases {
		beyond, within := tr.query(c.prov)
		if beyond != c.beyond || within != c.within {
			t.Errorf("query(%v): beyond=%v within=%v, want %v %v",
				c.prov, beyond, within, c.beyond, c.within)
		}
	}
}

func TestProvTrieMultiple(t *testing.T) {
	tr := &provTrie{}
	tr.insert([]int{1, 2})
	tr.insert([]int{1, 3, 4})
	if b, _ := tr.query([]int{1, 2, 9}); !b {
		t.Error("extension of a stop-provenance must be beyond")
	}
	if b, w := tr.query([]int{1, 3}); b || !w {
		t.Error("prefix of the second stop-provenance must be within")
	}
	if b, w := tr.query([]int{1, 4}); b || w {
		t.Error("diverging path must be neither")
	}
}

// TestStrategyCutsNullRecursion exercises Algorithm 1 directly: a linear
// null-generating cycle must be cut by the per-tree isomorphism check,
// and the stop-provenance must then prune the second tree without any
// isomorphism check (horizontal pruning via the lifted linear forest).
func TestStrategyCutsNullRecursion(t *testing.T) {
	res := analyzed(t, `
		p(X, N) -> p(X, M).
	`)
	s := NewStrategy(res)
	nulls := term.NewNullFactory()

	mkRoot := func(name string) *FactMeta {
		// EDB facts are ground; the rule then invents nulls.
		return s.NewEDBFact(ast.NewFact("p", term.String(name), term.String("seed")))
	}
	root1 := mkRoot("a")
	// First application: p(a, n2) from p(a, n1).
	f1 := s.Derive(ast.NewFact("p", term.String("a"), nulls.Fresh()), 0, []*FactMeta{root1})
	if !s.CheckTermination(f1) {
		t.Fatal("first derivation must be admitted")
	}
	// Second application: isomorphic to f1 within the same tree: cut, and
	// the stop-provenance is learnt.
	f2 := s.Derive(ast.NewFact("p", term.String("a"), nulls.Fresh()), 0, []*FactMeta{f1})
	if s.CheckTermination(f2) {
		t.Fatal("isomorphic repetition must be cut")
	}
	st := s.Stats()
	if st.IsoHits != 1 {
		t.Fatalf("iso hits: %d", st.IsoHits)
	}

	// A second tree with a different constant: same pattern. The cut must
	// now come from the summary structure, with no isomorphism check.
	root2 := mkRoot("b")
	g1 := s.Derive(ast.NewFact("p", term.String("b"), nulls.Fresh()), 0, []*FactMeta{root2})
	if !s.CheckTermination(g1) {
		t.Fatal("first derivation in second tree must be admitted (within stop-provenance)")
	}
	g2 := s.Derive(ast.NewFact("p", term.String("b"), nulls.Fresh()), 0, []*FactMeta{g1})
	if s.CheckTermination(g2) {
		t.Fatal("second tree must be cut at the stop-provenance")
	}
	st = s.Stats()
	if st.BeyondStop == 0 {
		t.Error("horizontal pruning did not fire")
	}
	if st.WithinStop == 0 {
		t.Error("within-stop fast path did not fire")
	}
	if st.IsoChecks != 2 {
		t.Errorf("iso checks: %d, want 2 (second tree must skip them)", st.IsoChecks)
	}
}

func TestStrategyGroundFastPath(t *testing.T) {
	res := analyzed(t, `
		a(X,Y), b(Y,Z) -> c(X,Z).
	`)
	s := NewStrategy(res)
	pa := s.NewEDBFact(ast.NewFact("a", term.String("x"), term.String("y")))
	pb := s.NewEDBFact(ast.NewFact("b", term.String("y"), term.String("z")))
	f := ast.NewFact("c", term.String("x"), term.String("z"))
	m1 := s.Derive(f, 0, []*FactMeta{pa, pb})
	if !s.CheckTermination(m1) {
		t.Fatal("fresh ground fact must open a new tree")
	}
	// Per the Policy contract the engines eliminate exact duplicates
	// before consulting the strategy, so ground facts are always admitted
	// — and never stored in the ground structure (only null-carrying
	// facts participate in isomorphism).
	if got := s.Stats().GroundFacts; got != 0 {
		t.Errorf("ground structure should hold no ground facts, has %d", got)
	}
	if got := s.Stats().NewTrees; got != 3 {
		t.Errorf("trees: %d, want 3", got)
	}
}

func TestDisableSummary(t *testing.T) {
	res := analyzed(t, `
		p(X, N) -> p(X, M).
	`)
	s := NewStrategy(res)
	s.DisableSummary = true
	nulls := term.NewNullFactory()
	root := s.NewEDBFact(ast.NewFact("p", term.String("a"), term.String("seed")))
	f1 := s.Derive(ast.NewFact("p", term.String("a"), nulls.Fresh()), 0, []*FactMeta{root})
	if !s.CheckTermination(f1) {
		t.Fatal("admit first")
	}
	f2 := s.Derive(ast.NewFact("p", term.String("a"), nulls.Fresh()), 0, []*FactMeta{f1})
	if s.CheckTermination(f2) {
		t.Fatal("iso cut must still work without the summary")
	}
	if s.SummarySize() != 0 {
		t.Error("summary must stay empty when disabled")
	}
}

func TestWardedDeriveKeepsWardTree(t *testing.T) {
	res := analyzed(t, `
		c(X) -> w(X, N).
		w(X, N), e(X, Y) -> w(Y, N).
	`)
	s := NewStrategy(res)
	nulls := term.NewNullFactory()
	root := s.NewEDBFact(ast.NewFact("c", term.String("a")))
	w1 := s.Derive(ast.NewFact("w", term.String("a"), nulls.Fresh()), 0, []*FactMeta{root})
	if !s.CheckTermination(w1) {
		t.Fatal("admit injector output")
	}
	edge := s.NewEDBFact(ast.NewFact("e", term.String("a"), term.String("b")))
	w2 := s.Derive(ast.NewFact("w", term.String("b"), w1.Fact.Args[1]), 1, []*FactMeta{w1, edge})
	if !s.CheckTermination(w2) {
		t.Fatal("admit warded propagation")
	}
	if w2.WRoot != w1.WRoot {
		t.Error("warded rule must keep the ward's tree")
	}
	if w2.LRoot != w2 {
		t.Error("warded rule must start a new linear-forest tree")
	}
	if w2.Provenance != nil {
		t.Error("warded rule must reset provenance")
	}
}

func TestFactMetaString(t *testing.T) {
	res := analyzed(t, `p(X) -> q(X). q(X) -> r(X).`)
	s := NewStrategy(res)
	m := s.NewEDBFact(ast.NewFact("p", term.String("a")))
	q := s.Derive(ast.NewFact("q", term.String("a")), 0, []*FactMeta{m})
	r := s.Derive(ast.NewFact("r", term.String("a")), 1, []*FactMeta{q})
	for _, c := range []struct {
		m    *FactMeta
		want string
	}{
		{m, `p(a) [non-linear prov=]`},
		{r, `r(a) [linear prov=0,1]`},
	} {
		if got := c.m.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if s.Stats().Patterns != 0 {
		t.Error("no patterns before any learning")
	}
}

// TestGroundPages fills G past three pages and requires every entry to stay
// where it was stored — a page, once full, is never copied — every page to
// be made at its full size, and every entry to be found: each
// fact's isomorphic copy, one derivation further, is cut by it.
func TestGroundPages(t *testing.T) {
	res := analyzed(t, `p(X, N) -> p(X, M).`)
	s := NewStrategy(res)
	s.DisableSummary = true // every copy takes the isomorphism check
	root := s.NewEDBFact(ast.NewFact("p", term.String("a"), term.String("seed")))
	const n = 3*groundPage + 5
	metas := make([]*FactMeta, n)
	var first *groundEntry
	for i := range metas {
		metas[i] = s.Derive(ast.NewFact("p", term.Int(int64(i)), term.Null(int64(i+1))), 0, []*FactMeta{root})
		if !s.CheckTermination(metas[i]) {
			t.Fatalf("fact %d: a fact with no isomorphic entry must be admitted", i)
		}
		if i == 0 {
			first = s.groundAt(0)
		}
	}
	if s.groundAt(0) != first {
		t.Error("the first entry moved as G grew")
	}
	if got := s.Stats().GroundFacts; got != n {
		t.Fatalf("G holds %d facts, want %d", got, n)
	}
	for p, page := range s.groundPages {
		if cap(page) != groundPage {
			t.Errorf("page %d has capacity %d, want %d", p, cap(page), groundPage)
		}
	}
	for i, m := range metas {
		cp := s.Derive(ast.NewFact("p", term.Int(int64(i)), term.Null(int64(n+i+1))), 0, []*FactMeta{m})
		if s.CheckTermination(cp) {
			t.Fatalf("fact %d: its isomorphic copy was admitted", i)
		}
	}
	if got := s.Stats().IsoHits; got != n {
		t.Errorf("%d isomorphism hits, want %d", got, n)
	}
}
