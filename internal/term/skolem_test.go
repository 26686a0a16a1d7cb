package term_test

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/term"
)

// Skolem nulls are minted from a database's NullFactory by its Skolem memo
// (storage.Database.Skolem), which keys applications by interned argument
// IDs. These tests pin the contract of the nulls as terms; FuzzSkolem in
// package storage drives the memo itself against a reference map.

// skolem applies the Skolem function name to args on db, interning them.
func skolem(db *storage.Database, name string, args ...term.Value) term.Value {
	ids := make([]uint32, len(args))
	for i, a := range args {
		ids[i] = db.Interner().Intern(a)
	}
	return db.Skolem(db.ResolveSkolem(name, len(args)), ids)
}

func TestSkolemDeterministicInjective(t *testing.T) {
	db := storage.NewDatabase()
	a := skolem(db, "f", term.String("x"), term.Int(1))
	if !a.IsNull() {
		t.Fatalf("skolem gave %v, not a null", a)
	}
	b := skolem(db, "f", term.String("x"), term.Int(1))
	if a != b {
		t.Error("skolem must be deterministic")
	}
	c := skolem(db, "f", term.String("x"), term.Int(2))
	if a == c {
		t.Error("skolem must be injective")
	}
	d := skolem(db, "g", term.String("x"), term.Int(1))
	if a == d {
		t.Error("skolem ranges must be disjoint across functions")
	}
}

func TestSkolemKeyMirrorsNullIdentity(t *testing.T) {
	// Property: two skolem applications yield the same null iff their keys
	// are equal (the tag-twin soundness condition).
	db := storage.NewDatabase()
	type app struct {
		fn  string
		arg int64
	}
	f := func(a, b app) bool {
		if a.fn == "" || b.fn == "" {
			return true
		}
		na := skolem(db, a.fn, term.Int(a.arg))
		nb := skolem(db, b.fn, term.Int(b.arg))
		ka := string(db.AppendNullKey(nil, na))
		kb := string(db.AppendNullKey(nil, nb))
		return (na == nb) == (ka == kb)
	}
	cfg := &quick.Config{Values: func(vs []reflect.Value, r *rand.Rand) {
		for i := range vs {
			vs[i] = reflect.ValueOf(app{fn: string(rune('f' + r.Intn(3))), arg: int64(r.Intn(5))})
		}
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKeyOfRecoversSkolemKey(t *testing.T) {
	db := storage.NewDatabase()
	n := skolem(db, "#r1:z", term.String("acme"))
	want := "#r1:z\x00" + strconv.Itoa(int(term.KindString)) + "\x01" + term.String("acme").String()
	if got := string(db.AppendNullKey(nil, n)); got != want {
		t.Errorf("key of %v: %q want %q", n, got, want)
	}
	fresh := db.Nulls.Fresh()
	if got := string(db.AppendNullKey(nil, fresh)); got == "" || got != fresh.String() {
		t.Errorf("fresh null %v keyed %q, want its label", fresh, got)
	}
}
