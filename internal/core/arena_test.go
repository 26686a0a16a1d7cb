package core

import (
	"testing"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/term"
)

// TestArenaAllocFree pins the arena's contract: runs are zeroed, capped at
// their length and disjoint; Free gives back only the most recent run, which
// the next Alloc then reuses, and leaves any other slice alone.
func TestArenaAllocFree(t *testing.T) {
	var a Arena[term.Value]
	if got := a.Alloc(0); got == nil || len(got) != 0 {
		t.Fatalf("Alloc(0) = %#v, want an empty non-nil slice", got)
	}
	x := a.Alloc(3)
	y := a.Alloc(2)
	if len(x) != 3 || cap(x) != 3 || len(y) != 2 || cap(y) != 2 {
		t.Fatalf("runs of len/cap %d/%d and %d/%d, want 3/3 and 2/2", len(x), cap(x), len(y), cap(y))
	}
	for i := range x {
		x[i] = term.Int(int64(i + 1))
	}
	for _, v := range y {
		if v != (term.Value{}) {
			t.Fatal("a fresh run is not zeroed, or overlaps the previous one")
		}
	}
	// An older run and a slice the arena does not own are left alone.
	a.Free(x)
	a.Free(make([]term.Value, 2))
	if x[0] != term.Int(1) {
		t.Fatal("Free cleared a run that is not the most recent")
	}
	y[0] = term.String("rejected")
	a.Free(y)
	if y[0] != (term.Value{}) {
		t.Fatal("Free did not zero the run it gave back")
	}
	z := a.Alloc(2)
	if &z[0] != &y[0] {
		t.Error("the run given back was not reused")
	}
	a.Free(z)
	a.Free(z) // the run is no longer the most recent: a no-op
	if w := a.Alloc(1); &w[0] != &y[0] {
		t.Error("a double Free moved the arena back past a live run")
	}
}

// TestArenaChunks pins the chunk policy: allocating one item at a time
// costs amortized nothing, and the unused tail of the last chunk — the slack
// a finished run retains — stays within the derived chunk length plus the
// allocator's rounding, whatever the run's size.
func TestArenaChunks(t *testing.T) {
	var warm Arena[FactMeta]
	if got := testing.AllocsPerRun(50_000, func() { warm.Alloc(1) }); got != 0 {
		t.Errorf("an Alloc(1) costs %.2f allocations amortized, want 0", got)
	}
	size := int(unsafe.Sizeof(FactMeta{}))
	for _, n := range []int{1, 10, 500, 10_000, 300_000} {
		var a Arena[FactMeta]
		for i := 0; i < n; i++ {
			a.Alloc(1)
		}
		chunk := min(max(n/arenaShare, arenaFloor), arenaCap)
		limit := chunk + chunk/8 + 8192/size // size-class or page rounding
		if slack := cap(a.chunk) - len(a.chunk); slack > limit {
			t.Errorf("%d items: %d items of slack, want at most %d", n, slack, limit)
		}
	}
}

// TestRejectedMetaReused pins the strategy's side of the Policy contract: a
// rejected fact's metadata is given back, and the next derivation reuses
// its slot, zeroed.
func TestRejectedMetaReused(t *testing.T) {
	res := analyzed(t, `p(X, N) -> p(X, M).`)
	s := NewStrategy(res)
	root := s.NewEDBFact(ast.NewFact("p", term.String("a"), term.String("seed")))
	f1 := s.Derive(ast.NewFact("p", term.String("a"), term.Null(1)), 0, []*FactMeta{root})
	if !s.CheckTermination(f1) {
		t.Fatal("first derivation must be admitted")
	}
	f2 := s.Derive(ast.NewFact("p", term.String("a"), term.Null(2)), 0, []*FactMeta{f1})
	if s.CheckTermination(f2) {
		t.Fatal("isomorphic repetition must be cut")
	}
	f3 := s.Derive(ast.NewFact("p", term.String("b"), term.Null(3)), 0, []*FactMeta{root})
	if f3 != f2 {
		t.Error("the rejected FactMeta's slot was not reused")
	}
	if f3.Fact.Args[0] != term.String("b") || f3.Provenance.Len() != 1 || f3.RowIndex() != -1 || f3.pattern != 0 {
		t.Errorf("the reused slot carries a stale field: %s row %d pattern %x", f3, f3.RowIndex(), f3.pattern)
	}
	if f1.Fact.Args[1] != term.Null(1) || f1.LRoot != root {
		t.Errorf("an admitted FactMeta was overwritten: %s", f1)
	}
}
