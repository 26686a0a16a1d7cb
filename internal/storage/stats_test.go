package storage

import (
	"testing"

	"repro/internal/term"
)

// TestDistinctEstimateAccuracy: the per-column sketches estimate distinct
// interned IDs within HyperLogLog accuracy (m=64 gives ~13% standard
// error; the bounds here are deliberately generous) and keep constant
// columns near 1.
func TestDistinctEstimateAccuracy(t *testing.T) {
	r := NewRelation("p", 2)
	for i := 0; i < 1000; i++ {
		r.Insert(meta("p", term.Int(int64(i)), term.String("const")))
	}
	st := r.Stats()
	if st.Live != 1000 {
		t.Fatalf("live: %d, want 1000", st.Live)
	}
	if len(st.Distinct) != 2 {
		t.Fatalf("distinct columns: %d, want 2", len(st.Distinct))
	}
	if st.Distinct[0] < 600 || st.Distinct[0] > 1600 {
		t.Errorf("distinct[0]: %.0f, want ~1000", st.Distinct[0])
	}
	if st.Distinct[1] > 2 {
		t.Errorf("distinct[1]: %.2f, want ~1 (constant column)", st.Distinct[1])
	}
}

// TestIndexUsageCounters: every probe an index serves counts as a hit; a
// mask without an index reports none.
func TestIndexUsageCounters(t *testing.T) {
	r := NewRelation("p", 2)
	for i := 0; i < 50; i++ {
		r.Insert(meta("p", term.Int(int64(i%5)), term.Int(int64(i))))
	}
	if _, ok := r.IndexHits(1); ok {
		t.Fatal("no index over mask 1 was built yet")
	}
	probe := []term.Value{term.Int(3), {}}
	for i := 0; i < 3; i++ {
		r.Lookup(1, probe)
	}
	if hits, ok := r.IndexHits(1); !ok || hits != 3 {
		t.Fatalf("hits=%d ok=%v, want 3/true", hits, ok)
	}
	r.Insert(meta("p", term.Int(3), term.Int(99)))
	if got := len(r.Lookup(1, probe)); got != 11 {
		t.Fatalf("lookup rows after extension: %d, want 11", got)
	}
	if hits, _ := r.IndexHits(1); hits != 4 {
		t.Fatalf("hits=%d after another probe, want 4", hits)
	}
}
