package storage

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/term"
)

func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	vals := []term.Value{
		term.String("alice"),
		term.String(""),
		term.Int(42),
		term.Int(-42),
		term.Float(3.5),
		term.Bool(true),
		term.Bool(false),
		term.Date(19000),
		term.Null(7),
	}
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		ids[i] = in.Intern(v)
		if ids[i] == 0 {
			t.Fatalf("ID 0 is reserved, got it for %v", v)
		}
	}
	for i, v := range vals {
		if got := in.Intern(v); got != ids[i] {
			t.Errorf("re-intern %v: %d, want %d", v, got, ids[i])
		}
		if got := in.ValueOf(ids[i]); got != v {
			t.Errorf("ValueOf(%d) = %v, want %v", ids[i], got, v)
		}
		id, ok := in.IDOf(v)
		if !ok || id != ids[i] {
			t.Errorf("IDOf(%v) = %d,%v want %d,true", v, id, ok, ids[i])
		}
	}
	if in.Len() != len(vals) {
		t.Errorf("Len: %d, want %d", in.Len(), len(vals))
	}
	// Distinct values must have distinct dense IDs.
	seen := map[uint32]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("ID %d assigned twice", id)
		}
		seen[id] = true
		if int(id) > len(vals) {
			t.Errorf("ID %d not dense (max %d)", id, len(vals))
		}
	}
}

func TestInternerNullIdentity(t *testing.T) {
	in := NewInterner()
	n1 := in.Intern(term.Null(1))
	n2 := in.Intern(term.Null(2))
	if n1 == n2 {
		t.Fatal("distinct labelled nulls must intern to distinct IDs")
	}
	if in.Intern(term.Null(1)) != n1 {
		t.Fatal("same labelled null must intern to the same ID")
	}
	if !in.ValueOf(n1).IsNull() || in.ValueOf(n1).NullID() != 1 {
		t.Fatal("null identity lost in round trip")
	}
	// A null and a string that renders identically must stay distinct.
	s := in.Intern(term.String("_:n1"))
	if s == n1 {
		t.Fatal("null and look-alike string conflated")
	}
}

// TestInternerNaN: NaN never equals itself, so it can never be found in
// a Value-keyed map; the interner must still deduplicate NaN facts the
// way the rendered-key representation did (every NaN rendered "NaN").
func TestInternerNaN(t *testing.T) {
	in := NewInterner()
	nan := term.Float(math.NaN())
	if _, ok := in.IDOf(nan); ok {
		t.Fatal("IDOf before interning")
	}
	id := in.Intern(nan)
	if id == 0 {
		t.Fatal("NaN got the invalid ID")
	}
	if in.Intern(term.Float(math.NaN())) != id {
		t.Fatal("NaN must intern to one stable ID")
	}
	if got, ok := in.IDOf(nan); !ok || got != id {
		t.Fatalf("IDOf(NaN) = %d,%v", got, ok)
	}
	if !math.IsNaN(in.ValueOf(id).FloatVal()) {
		t.Fatal("NaN round trip lost")
	}
	r := NewRelation("p", 1)
	if !r.Insert(meta("p", term.Float(math.NaN()))) {
		t.Fatal("first NaN fact rejected")
	}
	if r.Insert(meta("p", term.Float(math.NaN()))) {
		t.Fatal("duplicate NaN fact admitted (chase would not terminate)")
	}
}

func TestInternerUnknownAndInvalid(t *testing.T) {
	in := NewInterner()
	if _, ok := in.IDOf(term.Int(5)); ok {
		t.Fatal("IDOf must not invent IDs")
	}
	if v := in.ValueOf(0); v.Kind() != term.KindInvalid {
		t.Fatalf("ValueOf(0) must be invalid, got %v", v)
	}
	if v := in.ValueOf(999); v.Kind() != term.KindInvalid {
		t.Fatalf("ValueOf(out of range) must be invalid, got %v", v)
	}
	if in.Len() != 0 {
		t.Fatalf("Len of empty interner: %d", in.Len())
	}
}

// forceCollisions makes every tuple hash to one bucket for the duration
// of the test, exercising the bucket-chaining exact resolution.
func forceCollisions(t *testing.T) {
	t.Helper()
	oldRow, oldMasked := hashRow, hashMasked
	hashRow = func([]uint32) uint64 { return 42 }
	hashMasked = func([]uint32, uint32) uint64 { return 42 }
	t.Cleanup(func() { hashRow, hashMasked = oldRow, oldMasked })
}

func TestRelationDuplicateDetectionUnderCollisions(t *testing.T) {
	forceCollisions(t)
	r := NewRelation("p", 2)
	for i := 0; i < 50; i++ {
		if !r.Insert(meta("p", term.Int(int64(i)), term.Int(int64(i%7)))) {
			t.Fatalf("fresh fact %d rejected despite colliding hash", i)
		}
	}
	for i := 0; i < 50; i++ {
		if r.Insert(meta("p", term.Int(int64(i)), term.Int(int64(i%7)))) {
			t.Fatalf("duplicate fact %d admitted", i)
		}
		if !r.Contains(ast.NewFact("p", term.Int(int64(i)), term.Int(int64(i%7)))) {
			t.Fatalf("Contains misses stored fact %d", i)
		}
	}
	if r.Contains(ast.NewFact("p", term.Int(0), term.Int(1))) {
		t.Fatal("Contains reports a never-stored fact (collision leaked)")
	}
	if r.Len() != 50 {
		t.Fatalf("len: %d", r.Len())
	}
}

func TestLookupExactUnderCollisions(t *testing.T) {
	forceCollisions(t)
	r := NewRelation("p", 2)
	for i := 0; i < 40; i++ {
		r.Insert(meta("p", term.Int(int64(i%8)), term.Int(int64(i))))
	}
	rows := r.Lookup(1, []term.Value{term.Int(3), {}})
	if len(rows) != 5 {
		t.Fatalf("lookup rows: %d, want 5 (collisions must be filtered)", len(rows))
	}
	for _, row := range rows {
		if r.At(int(row)).Fact.Args[0] != term.Int(3) {
			t.Fatal("collision candidate leaked into lookup result")
		}
	}
	// Probing a value that shares the bucket but matches nothing.
	if got := r.Lookup(1, []term.Value{term.Int(int64(100)), {}}); got != nil {
		t.Fatalf("unknown constant matched %d rows", len(got))
	}
}

func TestSharedInternerAcrossRelations(t *testing.T) {
	db := NewDatabase()
	strat := &fakePolicy{}
	db.InsertEDB("p", []term.Value{term.String("x")}, strat)
	db.InsertEDB("q", []term.Value{term.String("x"), term.Int(1)}, strat)
	p, q := db.Lookup("p"), db.Lookup("q")
	if p.Interner() != q.Interner() || p.Interner() != db.Interner() {
		t.Fatal("relations must share the database interner")
	}
	if p.Row(0)[0] != q.Row(0)[0] {
		t.Fatal("same constant must have one ID database-wide")
	}
}

func TestRelationRowAccess(t *testing.T) {
	r := NewRelation("p", 3)
	r.Insert(meta("p", term.String("a"), term.Int(1), term.Null(2)))
	row := r.Row(0)
	if len(row) != 3 {
		t.Fatalf("row len: %d", len(row))
	}
	in := r.Interner()
	if in.ValueOf(row[0]) != term.String("a") ||
		in.ValueOf(row[1]) != term.Int(1) ||
		in.ValueOf(row[2]) != term.Null(2) {
		t.Fatal("row does not decode to the inserted fact")
	}
}

// TestRelationStrideContract: a relation stores rows of its arity only. A
// row of another width reaching a mutating method panics, naming the
// predicate and both widths, before anything is interned or stored; the
// read-only probes report such a fact absent.
func TestRelationStrideContract(t *testing.T) {
	r := NewRelation("p", 2)
	r.Insert(meta("p", term.Int(1), term.Int(2)))
	in := r.Interner()
	before := in.Len()
	wide := []term.Value{term.Int(1), term.Int(2), term.Int(3)}
	short := []uint32{in.Intern(term.Int(1))}
	for name, store := range map[string]func(){
		"Insert":         func() { r.Insert(meta("p", wide...)) },
		"InsertEDB":      func() { r.InsertEDB(wide, core.NewStrategy(&analysis.Result{})) },
		"InsertPrepared": func() { r.InsertPrepared(meta("p", term.Int(1)), short, HashRow(short)) },
		"Replace":        func() { r.Replace(0, ast.NewFact("p", wide...)) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "p has arity 2, not ") {
					t.Errorf("%s of another width: panic %q, want one naming p and both widths", name, msg)
				}
			}()
			store()
		}()
	}
	if r.Len() != 1 || in.Len() != before || !slices.Equal(r.Row(0), []uint32{1, 2}) {
		t.Errorf("a refused row changed the store: %d rows, %d values interned (was %d), row 0 %v", r.Len(), in.Len(), before, r.Row(0))
	}
	for _, f := range []ast.Fact{ast.NewFact("p", term.Int(1)), ast.NewFact("p", wide...)} {
		if _, found := r.FindExact(f); found || r.Contains(f) {
			t.Errorf("%v of another width is reported stored", f)
		}
	}
}
