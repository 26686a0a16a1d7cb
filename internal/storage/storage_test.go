package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/term"
)

func meta(pred string, args ...term.Value) *core.FactMeta {
	return &core.FactMeta{Fact: ast.NewFact(pred, args...)}
}

func fillRel(n int) *Relation {
	r := NewRelation("p", 2)
	for i := 0; i < n; i++ {
		r.Insert(meta("p", term.String(fmt.Sprintf("k%d", i%7)), term.Int(int64(i))))
	}
	return r
}

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation("p", 2)
	if !r.Insert(meta("p", term.String("a"), term.Int(1))) {
		t.Fatal("first insert must succeed")
	}
	if r.Insert(meta("p", term.String("a"), term.Int(1))) {
		t.Fatal("duplicate insert must fail")
	}
	if r.Len() != 1 {
		t.Fatalf("len: %d", r.Len())
	}
	if !r.Contains(ast.NewFact("p", term.String("a"), term.Int(1))) {
		t.Fatal("contains")
	}
}

func TestDynamicIndexLookup(t *testing.T) {
	r := NewRelation("p", 2)
	for i := 0; i < 100; i++ {
		r.Insert(meta("p", term.Int(int64(i%10)), term.Int(int64(i))))
	}
	probe := []term.Value{term.Int(3), {}}
	rows := r.Lookup(1, probe) // mask = position 0
	if len(rows) != 10 {
		t.Fatalf("lookup rows: %d, want 10", len(rows))
	}
	for _, row := range rows {
		if r.At(int(row)).Fact.Args[0] != term.Int(3) {
			t.Fatal("index returned wrong fact")
		}
	}
	if r.IndexCount() != 1 {
		t.Fatalf("index count: %d", r.IndexCount())
	}
}

// TestDynamicIndexExtension: facts inserted after an index was built are
// found by later lookups (the lazy extension of the slot machine join).
func TestDynamicIndexExtension(t *testing.T) {
	r := NewRelation("p", 2)
	r.Insert(meta("p", term.Int(1), term.Int(10)))
	probe := []term.Value{term.Int(1), {}}
	if got := len(r.Lookup(1, probe)); got != 1 {
		t.Fatalf("initial: %d", got)
	}
	r.Insert(meta("p", term.Int(1), term.Int(11)))
	if got := len(r.Lookup(1, probe)); got != 2 {
		t.Fatalf("after extension: %d", got)
	}
}

// TestLookupMatchesScan is a property test: for random relations, masks
// and probes, the indexed lookup equals the naive scan.
func TestLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		r := NewRelation("p", 3)
		n := 5 + rng.Intn(60)
		for i := 0; i < n; i++ {
			r.Insert(meta("p",
				term.Int(int64(rng.Intn(4))),
				term.Int(int64(rng.Intn(4))),
				term.Int(int64(rng.Intn(4)))))
		}
		mask := uint32(rng.Intn(8))
		probe := []term.Value{
			term.Int(int64(rng.Intn(4))),
			term.Int(int64(rng.Intn(4))),
			term.Int(int64(rng.Intn(4))),
		}
		got := map[int32]bool{}
		for _, row := range r.Lookup(mask, probe) {
			got[row] = true
		}
		for i := 0; i < r.Len(); i++ {
			f := r.At(i).Fact
			match := true
			for p := 0; p < 3; p++ {
				if mask&(1<<uint(p)) != 0 && f.Args[p] != probe[p] {
					match = false
				}
			}
			if match != got[int32(i)] {
				t.Fatalf("trial %d: row %d mask %b: scan=%v index=%v", trial, i, mask, match, got[int32(i)])
			}
		}
	}
}

func TestDatabaseActiveDomain(t *testing.T) {
	db := NewDatabase()
	strat := &fakePolicy{}
	db.InsertEDB("p", []term.Value{term.String("a"), term.Int(5)}, strat)
	if !db.InActiveDomain(term.String("a")) || !db.InActiveDomain(term.Int(5)) {
		t.Error("EDB constants must be in the active domain")
	}
	if db.InActiveDomain(term.String("zz")) {
		t.Error("unknown constant must not be in the active domain")
	}
	if db.InActiveDomain(term.Null(1)) {
		t.Error("nulls are never in the active domain")
	}
	if db.ActiveDomainSize() != 2 {
		t.Errorf("ACDom size: %d", db.ActiveDomainSize())
	}
}

type fakePolicy struct{}

func (f *fakePolicy) NewEDBFact(fa ast.Fact) *core.FactMeta { return &core.FactMeta{Fact: fa} }
func (f *fakePolicy) Derive(fa ast.Fact, ruleID int, parents []*core.FactMeta) *core.FactMeta {
	return &core.FactMeta{Fact: fa}
}
func (f *fakePolicy) CheckTermination(m *core.FactMeta) bool { return true }

func TestDatabaseTotals(t *testing.T) {
	db := NewDatabase()
	strat := &fakePolicy{}
	db.InsertEDB("p", []term.Value{term.Int(1)}, strat)
	db.InsertEDB("q", []term.Value{term.Int(2), term.Int(3)}, strat)
	if db.TotalFacts() != 2 {
		t.Errorf("total: %d", db.TotalFacts())
	}
	if len(db.Predicates()) != 2 {
		t.Errorf("preds: %v", db.Predicates())
	}
	if db.Bytes() <= 0 {
		t.Error("bytes accounting")
	}
	if got := db.FactsOf("p"); len(got) != 1 {
		t.Errorf("FactsOf: %v", got)
	}
	if db.Lookup("nope") != nil {
		t.Error("missing relation must be nil")
	}
}

func TestRelationReplaceInPlace(t *testing.T) {
	r := NewRelation("agg", 2)
	r.Insert(meta("agg", term.String("g"), term.Int(1)))
	r.Insert(meta("agg", term.String("h"), term.Int(5)))
	// Build an index over position 0 so Replace must maintain it.
	if got := len(r.Lookup(1, []term.Value{term.String("g"), {}})); got != 1 {
		t.Fatalf("pre-replace lookup: %d", got)
	}
	if out := r.Replace(0, ast.NewFact("agg", term.String("g"), term.Int(3))); out != ReplaceDone {
		t.Fatalf("replace outcome: %v", out)
	}
	// The row keeps its index, the old tuple is gone, the new one found.
	if r.Len() != 2 || r.Live() != 2 {
		t.Fatalf("len/live: %d/%d", r.Len(), r.Live())
	}
	if r.At(0).Fact.Args[1] != term.Int(3) {
		t.Errorf("row 0 fact not updated: %v", r.At(0).Fact)
	}
	if r.Contains(ast.NewFact("agg", term.String("g"), term.Int(1))) {
		t.Error("superseded tuple still passes the duplicate check")
	}
	if !r.Contains(ast.NewFact("agg", term.String("g"), term.Int(3))) {
		t.Error("superseding tuple missing from the duplicate check")
	}
	if got := len(r.Lookup(2, []term.Value{{}, term.Int(3)})); got != 1 {
		t.Errorf("index over replaced position finds %d rows, want 1", got)
	}
	if got := len(r.Lookup(2, []term.Value{{}, term.Int(1)})); got != 0 {
		t.Errorf("index still finds the superseded value: %d rows", got)
	}
	// Replacing with the identical tuple is a no-op.
	if out := r.Replace(0, ast.NewFact("agg", term.String("g"), term.Int(3))); out != ReplaceUnchanged {
		t.Errorf("identical replace: %v", out)
	}
}

func TestRelationReplaceDeltaLog(t *testing.T) {
	r := NewRelation("agg", 2)
	r.Insert(meta("agg", term.String("g"), term.Int(1)))
	if r.DeltaLen() != 1 {
		t.Fatalf("delta len: %d", r.DeltaLen())
	}
	r.Replace(0, ast.NewFact("agg", term.String("g"), term.Int(2)))
	// The replaced row is re-delivered: cursors past the original insert
	// observe the superseding fact as a fresh delta.
	if r.DeltaLen() != 2 {
		t.Fatalf("delta len after replace: %d", r.DeltaLen())
	}
	if r.DeltaAt(1) != r.At(0) {
		t.Error("replacement delta must alias the replaced row")
	}
	r.Insert(meta("agg", term.String("h"), term.Int(9)))
	if r.DeltaLen() != 3 || r.DeltaAt(2) != r.At(1) {
		t.Error("inserts after a replace must append to the delta log")
	}
}

func TestRelationReplaceRetractsOnDuplicate(t *testing.T) {
	r := NewRelation("agg", 2)
	r.Insert(meta("agg", term.String("g"), term.Int(1)))
	r.Insert(meta("agg", term.String("g"), term.Int(2)))
	r.Lookup(1, []term.Value{term.String("g"), {}})
	// Row 0's improvement collides with row 1: row 0 is retracted, not
	// duplicated.
	if out := r.Replace(0, ast.NewFact("agg", term.String("g"), term.Int(2))); out != ReplaceRetracted {
		t.Fatalf("outcome: %v", out)
	}
	if !r.At(0).Retracted {
		t.Error("superseded row not marked retracted")
	}
	if r.Len() != 2 || r.Live() != 1 {
		t.Errorf("len/live: %d/%d", r.Len(), r.Live())
	}
	if got := len(r.Facts()); got != 1 {
		t.Errorf("Facts includes retracted rows: %d", got)
	}
	if r.Contains(ast.NewFact("agg", term.String("g"), term.Int(1))) {
		t.Error("retracted tuple still passes the duplicate check")
	}
	if got := len(r.Lookup(1, []term.Value{term.String("g"), {}})); got != 1 {
		t.Errorf("lookup returns retracted rows: %d", got)
	}
	if got := len(r.LookupIDs(0, nil)); got != 1 {
		t.Errorf("full scan returns retracted rows: %d", got)
	}
	// A fresh index built after the retraction must skip the dead row.
	if got := len(r.Lookup(2, []term.Value{{}, term.Int(1)})); got != 0 {
		t.Errorf("rebuilt index resurrected a retracted row: %d", got)
	}
	rowOf := func(args ...term.Value) []uint32 {
		row := make([]uint32, len(args))
		for i, v := range args {
			row[i], _ = r.Interner().IDOf(v)
		}
		return row
	}
	retracted, live := rowOf(term.String("g"), term.Int(1)), rowOf(term.String("g"), term.Int(2))
	if _, found := r.FindRow(retracted, HashRow(retracted)); found {
		t.Error("FindRow located a retracted row")
	}
	if idx, found := r.FindRow(live, HashRow(live)); !found || idx != 1 {
		t.Errorf("FindRow: idx=%d found=%v", idx, found)
	}
}

// TestLiveAtModel interleaves inserts, Replaces — a good share of which
// retract, their new value being stored elsewhere — and LiveAt reads, and
// requires LiveAt to agree with a plain list of the live rows after every
// step, past its end included.
func TestLiveAtModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRelation("p", 1)
	var live []int // row indexes of the live rows, ascending
	fact := func() ast.Fact { return ast.NewFact("p", term.Int(int64(rng.Intn(40)))) }
	retracted := 0
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 && r.Len() > 0:
			i := rng.Intn(r.Len())
			if r.Replace(i, fact()) == ReplaceRetracted {
				k := slices.Index(live, i)
				live = slices.Delete(live, k, k+1)
				retracted++
			}
		case op == 1:
			if r.Insert(meta("p", fact().Args...)) {
				live = append(live, r.Len()-1)
			}
		default:
			n := rng.Intn(len(live) + 2)
			got := r.LiveAt(n)
			if n >= len(live) {
				if got != nil {
					t.Fatalf("step %d: LiveAt(%d) of %d live rows = %v, want nil", step, n, len(live), got.Fact)
				}
			} else if got != r.At(live[n]) {
				t.Fatalf("step %d: LiveAt(%d) is not row %d", step, n, live[n])
			}
		}
		if r.Live() != len(live) {
			t.Fatalf("step %d: Live = %d, the list holds %d", step, r.Live(), len(live))
		}
	}
	if retracted < 10 {
		t.Fatalf("only %d retractions: the stream must exercise them", retracted)
	}
}

// TestPredicatesStaySorted: relations created in any order are listed in
// sorted order (Rel inserts the name at its place instead of re-sorting).
func TestPredicatesStaySorted(t *testing.T) {
	db := NewDatabase()
	for _, pred := range []string{"m", "b", "z", "a", "m", "q", "aa", ""} {
		db.Rel(pred, 1)
	}
	want := []string{"", "a", "aa", "b", "m", "q", "z"}
	if got := db.Predicates(); !reflect.DeepEqual(got, want) {
		t.Errorf("Predicates() = %q, want %q", got, want)
	}
}

// TestActiveDomainBitset: ACDom is a set over dense IDs — it grows across
// word boundaries, counts each constant once, and holds neither nulls nor
// the values of facts that were not loaded as EDB.
func TestActiveDomainBitset(t *testing.T) {
	db := NewDatabase()
	strat := &fakePolicy{}
	db.Insert(meta("idb", term.String("derived-only")))
	const n = 200
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			db.InsertEDB("p", []term.Value{term.Int(int64(i)), term.Null(int64(i + 1)), term.String("shared")}, strat)
		}
	}
	if got := db.ActiveDomainSize(); got != n+1 {
		t.Fatalf("|ACDom| = %d, want %d ints and one string", got, n+1)
	}
	for i := 0; i < n; i++ {
		if !db.InActiveDomain(term.Int(int64(i))) || db.InActiveDomain(term.Null(int64(i+1))) {
			t.Fatalf("int %d must be in ACDom and null %d must not", i, i+1)
		}
	}
	if db.InActiveDomain(term.String("derived-only")) || db.InActiveDomain(term.String("never")) {
		t.Error("only EDB constants belong to ACDom")
	}
	if db.InActiveDomainID(0) || db.InActiveDomainID(1<<20) {
		t.Error("the invalid ID and IDs past the table are not in ACDom")
	}
}

// TestLiveRowCache: repeated full-scan lookups reuse one cached slice,
// the cache extends over appended rows, and retraction invalidates it.
func TestLiveRowCache(t *testing.T) {
	r := fillRel(50)
	a := r.LookupIDs(0, nil)
	b := r.LookupIDs(0, nil)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("live scan: %d/%d", len(a), len(b))
	}
	if &a[0] != &b[0] {
		t.Error("mask-0 lookups should share the cached live-row slice")
	}
	r.Insert(meta("p", term.String("new"), term.Int(999)))
	if got := r.LookupIDs(0, nil); len(got) != 51 {
		t.Errorf("cache did not extend over the append: %d", len(got))
	}
	// Retract via Replace-to-existing: row 0 collides with row 1's value.
	f1 := r.At(1).Fact
	if out := r.Replace(0, f1); out != ReplaceRetracted {
		t.Fatalf("replace outcome: %v", out)
	}
	got := r.LookupIDs(0, nil)
	if len(got) != 50 {
		t.Errorf("after retraction: %d live rows, want 50", len(got))
	}
	for _, ri := range got {
		if ri == 0 {
			t.Error("retracted row 0 still in the live cache")
		}
	}
}
