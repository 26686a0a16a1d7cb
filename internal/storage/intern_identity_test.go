package storage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/term"
)

// valueKeyedInterner is the symbol table as it was before it was keyed by
// payload: one map over whole term.Values, every NaN on one shared ID. It is
// the identity oracle for Interner.
type valueKeyedInterner struct {
	ids   map[term.Value]uint32
	vals  []term.Value
	nanID uint32
}

func (r *valueKeyedInterner) intern(v term.Value) uint32 {
	if isNaN(v) {
		if r.nanID == 0 {
			r.nanID = uint32(len(r.vals))
			r.vals = append(r.vals, v)
		}
		return r.nanID
	}
	if id, ok := r.ids[v]; ok {
		return id
	}
	id := uint32(len(r.vals))
	r.ids[v] = id
	r.vals = append(r.vals, v)
	return id
}

func (r *valueKeyedInterner) idOf(v term.Value) (uint32, bool) {
	if isNaN(v) {
		return r.nanID, r.nanID != 0
	}
	id, ok := r.ids[v]
	return id, ok
}

func isNaN(v term.Value) bool {
	return v.Kind() == term.KindFloat && math.IsNaN(v.FloatVal())
}

// identityPool holds values chosen to collide wherever a per-kind layout
// could go wrong: equal payload bits across kinds, text that renders alike
// across kinds, both zeros, NaNs of several payloads, multi-digit nulls.
func identityPool() []term.Value {
	oneBits := int64(math.Float64bits(1.0))
	pool := []term.Value{
		{}, // the invalid value interns like any other
		term.String(""), term.String("1"), term.String("1.0"), term.String("#t"), term.String("d1"),
		term.String("_:n1"), term.String("{a,b}"), term.String("{}"), term.String("NaN"), term.String("0"),
		term.Set(nil), term.Set([]term.Value{term.String("a"), term.String("b")}),
		term.Set([]term.Value{term.Int(1)}), term.Set([]term.Value{term.Float(1)}),
		term.Bool(false), term.Bool(true),
		term.Float(0), term.Float(math.Copysign(0, -1)), term.Float(1), term.Float(-1), term.Float(1.5),
		term.Float(math.Inf(1)), term.Float(math.Inf(-1)), term.Float(math.SmallestNonzeroFloat64),
		term.Float(math.NaN()), term.Float(-math.NaN()),
		term.Float(math.Float64frombits(0x7ff8000000000001)), term.Float(math.Float64frombits(0xfff0000000000001)),
		term.Float(math.Float64frombits(uint64(oneBits))),
	}
	for _, i := range []int64{0, 1, -1, 2, 7, 12, 123, 123456, oneBits, math.MaxInt64, math.MinInt64} {
		pool = append(pool, term.Int(i), term.Date(i), term.Null(i))
	}
	return pool
}

// TestInternerIdentitiesMatchValueKeyedMap drives the per-kind tables and a
// map[term.Value]uint32 with one generated stream of Intern and IDOf calls
// and requires the same answer at every step: the same ID for every value
// (kinds never mix, NaNs share one ID, -0.0 shares 0.0's), the same misses,
// the same Len, and the same representative back from ValueOf.
func TestInternerIdentitiesMatchValueKeyedMap(t *testing.T) {
	pool := identityPool()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := NewInterner()
		ref := &valueKeyedInterner{ids: make(map[term.Value]uint32), vals: make([]term.Value, 1)}
		for step := 0; step < 4*len(pool); step++ {
			v := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				gotID, got := in.IDOf(v)
				wantID, want := ref.idOf(v)
				if got != want || gotID != wantID {
					t.Fatalf("seed %d step %d: IDOf(%v %v) = %d,%v, value-keyed map %d,%v", seed, step, v.Kind(), v, gotID, got, wantID, want)
				}
				continue
			}
			if got, want := in.Intern(v), ref.intern(v); got != want {
				t.Fatalf("seed %d step %d: Intern(%v %v) = %d, value-keyed map %d", seed, step, v.Kind(), v, got, want)
			}
		}
		if in.Len() != len(ref.vals)-1 {
			t.Fatalf("seed %d: Len = %d, value-keyed map holds %d", seed, in.Len(), len(ref.vals)-1)
		}
		for id := 1; id < len(ref.vals); id++ {
			got, want := in.ValueOf(uint32(id)), ref.vals[id]
			same := got == want
			if want.Kind() == term.KindFloat {
				same = got.Kind() == term.KindFloat && math.Float64bits(got.FloatVal()) == math.Float64bits(want.FloatVal())
			}
			if !same {
				t.Fatalf("seed %d: ValueOf(%d) = %v %v, value-keyed map %v %v", seed, id, got.Kind(), got, want.Kind(), want)
			}
		}
	}
}

// TestInternerPreservedIdentities states the three identities outright.
func TestInternerPreservedIdentities(t *testing.T) {
	in := NewInterner()
	seen := map[uint32]term.Value{}
	for _, v := range []term.Value{
		term.Int(1), term.Float(1), term.Bool(true), term.Date(1), term.Null(1), term.String("1"),
		term.Set([]term.Value{term.Int(1)}), term.String("{1}"),
	} {
		id := in.Intern(v)
		if other, dup := seen[id]; dup {
			t.Fatalf("%v %v and %v %v share ID %d: kinds must never mix", v.Kind(), v, other.Kind(), other, id)
		}
		seen[id] = v
	}
	nan := in.Intern(term.Float(math.NaN()))
	if in.Intern(term.Float(math.Float64frombits(0x7ff8000000000001))) != nan || in.Intern(term.Float(-math.NaN())) != nan {
		t.Fatal("every NaN payload must share one ID")
	}
	if in.Intern(term.Float(0)) != in.Intern(term.Float(math.Copysign(0, -1))) {
		t.Fatal("-0.0 must share 0.0's ID")
	}
}
