package storage

import (
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

// TestDistinctCountsExact: the per-column distinct counts are exact — a key
// column counts every value, a constant column one — and the scratch bitset
// they are counted through is left all zero.
func TestDistinctCountsExact(t *testing.T) {
	r := NewRelation("p", 2)
	for i := 0; i < 1000; i++ {
		r.Insert(meta("p", term.Int(int64(i)), term.String("const")))
	}
	var seen []uint64
	st := r.stats(&seen)
	if st.Live != 1000 || !slices.Equal(st.Distinct, []int{1000, 1}) {
		t.Fatalf("stats: live %d distinct %v, want 1000 [1000 1]", st.Live, st.Distinct)
	}
	if i := slices.IndexFunc(seen, func(w uint64) bool { return w != 0 }); i >= 0 {
		t.Fatalf("scratch word %d left %#x, want all zero", i, seen[i])
	}
}

// TestDistinctCountsMemoized: Database.RelStats counts over the live rows
// only, a Replace and a retraction show in the next read, and a read of an
// unchanged relation returns the memo without scanning the rows again.
func TestDistinctCountsMemoized(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 10; i++ {
		db.Insert(meta("p", term.Int(int64(i)), term.Int(int64(i%2))))
	}
	r := db.Lookup("p")
	want := func(step string, live int, distinct ...int) {
		t.Helper()
		st, ok := db.RelStats("p")
		if !ok || st.Live != live || !slices.Equal(st.Distinct, distinct) {
			t.Fatalf("%s: live %d distinct %v, want %d %v", step, st.Live, st.Distinct, live, distinct)
		}
		if i := slices.IndexFunc(db.seen, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("%s: scratch word %d left %#x, want all zero", step, i, db.seen[i])
		}
	}
	want("loaded", 10, 10, 2)
	if got := r.Replace(3, ast.NewFact("p", term.Int(3), term.Int(7))); got != ReplaceDone {
		t.Fatalf("Replace row 3: %v, want ReplaceDone", got)
	}
	want("after Replace", 10, 10, 3)
	// p(5,1) is row 5 already: row 4, p(4,0), is retracted and its 4 no
	// longer counts.
	if got := r.Replace(4, ast.NewFact("p", term.Int(5), term.Int(1))); got != ReplaceRetracted {
		t.Fatalf("Replace row 4: %v, want ReplaceRetracted", got)
	}
	want("after retraction", 9, 9, 3)
	// Retracting row 3, p(3,7), takes the only 7 with it.
	r.Replace(3, ast.NewFact("p", term.Int(6), term.Int(0)))
	want("after second retraction", 8, 8, 2)

	// Overwrite row 0's first ID behind the relation's back: a recount would
	// see one value fewer in column 0, the memo does not.
	saved := r.rows[0]
	r.rows[0] = r.rows[2]
	want("unchanged relation", 8, 8, 2)
	r.rows[0] = saved
	db.Insert(meta("p", term.Int(10), term.Int(0)))
	want("after append", 9, 9, 2)
	if _, ok := db.RelStats("absent"); ok {
		t.Fatal("RelStats of a predicate without a relation reports ok")
	}
}
