package storage

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/term"
)

// valueKeyedInterner is the identity oracle for Interner: one map over whole
// term.Values, every NaN on one shared ID.
type valueKeyedInterner struct {
	ids   map[term.Value]uint32
	vals  []term.Value
	nanID uint32
}

func newValueKeyedInterner() *valueKeyedInterner {
	return &valueKeyedInterner{ids: make(map[term.Value]uint32), vals: make([]term.Value, 1)}
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

// sameBits reports whether a and b are one value down to the float bits:
// ValueOf must hand back the representative interned first, not merely an
// identical one.
func sameBits(a, b term.Value) bool {
	if a.Kind() == term.KindFloat && b.Kind() == term.KindFloat {
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
	}
	return a == b
}

// internerModel drives an Interner and the value-keyed reference in step.
type internerModel struct {
	in  *Interner
	ref *valueKeyedInterner
}

func newInternerModel() *internerModel {
	return &internerModel{in: NewInterner(), ref: newValueKeyedInterner()}
}

// step interns v in both — or, when lookup, only looks it up — and requires
// the same answer, the same Len (so IDs stay dense: a new value gets Len),
// and ValueOf of the answer identical to v.
func (m *internerModel) step(t *testing.T, step int, v term.Value, lookup bool) {
	t.Helper()
	var got, want uint32
	if lookup {
		var gotOK, wantOK bool
		got, gotOK = m.in.IDOf(v)
		want, wantOK = m.ref.idOf(v)
		if gotOK != wantOK || got != want {
			t.Fatalf("step %d: IDOf(%v %v) = %d,%v, value-keyed map %d,%v", step, v.Kind(), v, got, gotOK, want, wantOK)
		}
	} else if got, want = m.in.Intern(v), m.ref.intern(v); got != want {
		t.Fatalf("step %d: Intern(%v %v) = %d, value-keyed map %d", step, v.Kind(), v, got, want)
	}
	if m.in.Len() != len(m.ref.vals)-1 {
		t.Fatalf("step %d: Len = %d, value-keyed map holds %d", step, m.in.Len(), len(m.ref.vals)-1)
	}
	if got != 0 && !term.Identical(m.in.ValueOf(got), v) {
		t.Fatalf("step %d: ValueOf(%d) = %v %v, not %v %v", step, got, m.in.ValueOf(got).Kind(), m.in.ValueOf(got), v.Kind(), v)
	}
}

// agree requires every ID to decode to the reference's representative.
func (m *internerModel) agree(t *testing.T) {
	t.Helper()
	for id := 1; id < len(m.ref.vals); id++ {
		if got, want := m.in.ValueOf(uint32(id)), m.ref.vals[id]; !sameBits(got, want) {
			t.Fatalf("ValueOf(%d) = %v %v, value-keyed map %v %v", id, got.Kind(), got, want.Kind(), want)
		}
	}
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

// forceValueCollisions puts every value on one hash, hence one tag and one
// probe run, for the duration of the test: only term.Identical tells the
// candidates apart.
func forceValueCollisions(t *testing.T) {
	t.Helper()
	old := hashValue
	hashValue = func(term.Value) uint64 { return 42 }
	t.Cleanup(func() { hashValue = old })
}

// checkIdentitiesMatchValueKeyedMap drives the interner and a
// map[term.Value]uint32 with one generated stream of Intern and IDOf calls
// and requires the same answer at every step: the same ID for every value
// (kinds never mix, NaNs share one ID, -0.0 shares 0.0's), the same misses,
// the same Len, and the same representative back from ValueOf.
func checkIdentitiesMatchValueKeyedMap(t *testing.T) {
	pool := identityPool()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newInternerModel()
		for step := 0; step < 4*len(pool); step++ {
			m.step(t, step, pool[rng.Intn(len(pool))], rng.Intn(3) == 0)
		}
		m.agree(t)
	}
}

// checkPreservedIdentities states the identities outright.
func checkPreservedIdentities(t *testing.T) {
	in := NewInterner()
	seen := map[uint32]term.Value{}
	for _, v := range []term.Value{
		term.Int(1), term.Float(1), term.Bool(true), term.Date(1), term.Null(1), term.String("1"),
		term.String("_:n1"), term.Set([]term.Value{term.Int(1)}), term.String("{1}"),
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

func TestInternerIdentitiesMatchValueKeyedMap(t *testing.T) { checkIdentitiesMatchValueKeyedMap(t) }

func TestInternerPreservedIdentities(t *testing.T) { checkPreservedIdentities(t) }

// TestInternerIdentitiesOneTag runs the identity suite with every value on
// one hash: Int(1) next to Float(1.0), every NaN, both zeros, a null next to
// "_:n1" and a set next to its rendering all sit in one probe run.
func TestInternerIdentitiesOneTag(t *testing.T) {
	forceValueCollisions(t)
	checkIdentitiesMatchValueKeyedMap(t)
	checkPreservedIdentities(t)
}

// TestInternerWarmAllocations pins the read paths: a hit of Intern and an
// IDOf, found or not, allocate nothing.
func TestInternerWarmAllocations(t *testing.T) {
	in := NewInterner()
	vals := []term.Value{
		term.String("alice"), term.Int(7), term.Float(2.5), term.Null(3),
		term.Set([]term.Value{term.Int(1), term.String("a")}),
	}
	for _, v := range vals {
		in.Intern(v)
	}
	absent := term.String("bob")
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			in.Intern(v)
		}
	}); n != 0 {
		t.Errorf("warm Intern: %v allocations per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			in.IDOf(v)
		}
		in.IDOf(absent)
	}); n != 0 {
		t.Errorf("IDOf: %v allocations per run, want 0", n)
	}
}

// TestInternerProbeRuns: values whose payloads differ in few bits — one
// integer payload under every fixed-size kind, integral and half floats,
// the integers' text — keep a hit's probe run at what linear probing gives
// uniformly random keys (about 2.5 slots at the 3/4 growth threshold),
// bounded here at 3. A tag taken from the low payload bits alone puts every
// integral float below 2^20 on one tag.
func TestInternerProbeRuns(t *testing.T) {
	in := NewInterner()
	var vals []term.Value
	for i := int64(0); i < 4096; i++ {
		vals = append(vals, term.Int(i), term.Date(i), term.Null(i), term.Float(float64(i)),
			term.Float(float64(i)+0.5), term.String(strconv.FormatInt(i, 10)))
	}
	for _, v := range vals {
		in.Intern(v)
	}
	cost := 0
	for _, v := range vals {
		id, _ := in.IDOf(v)
		cost += probeCost(&in.table, hashValue(v), int(id))
	}
	mean := float64(cost) / float64(len(vals))
	t.Logf("%d values in %d slots: mean probe run %.2f slots", len(vals), len(in.table.slots), mean)
	if mean > 3 {
		t.Errorf("mean probe run %.2f slots, want at most 3", mean)
	}
}

// fuzzValue decodes two bytes into a value: an identity-pool entry, or an
// int, float, date, null, string or set whose payloads overlap each other's
// and the pool's.
func fuzzValue(pool []term.Value, kind, b byte) term.Value {
	switch kind % 8 {
	case 0, 1:
		return pool[int(b)%len(pool)]
	case 2:
		return term.Int(int64(int8(b)))
	case 3:
		return term.Float(float64(int8(b)) / 4)
	case 4:
		return term.Date(int64(b % 16))
	case 5:
		return term.Null(int64(b % 16))
	case 6:
		return term.String(strconv.Itoa(int(int8(b)) / 4))
	default:
		var elems []term.Value
		for i := 0; i < 3; i++ {
			if b&(1<<i) != 0 {
				elems = append(elems, term.Int(int64(i)))
			}
			if b&(8<<i) != 0 {
				elems = append(elems, term.Float(float64(i)))
			}
		}
		return term.Set(elems)
	}
}

// FuzzInterner checks the interner against the value-keyed reference on
// mutated streams of three bytes per operation — an IDOf when the first is
// divisible by three, an Intern otherwise, of fuzzValue(the other two):
// dense IDs and a ValueOf round trip after every step, every representative
// at the end. An input of odd length runs with every value on one hash.
// Inputs are cut at 2 000 operations, several pages' worth.
func FuzzInterner(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 3*1200)
	rng.Read(seed)
	f.Add(seed)
	f.Add(seed[:3*300+1])
	f.Add([]byte{1, 0, 17, 1, 2, 1, 1, 3, 4, 0, 3, 4})
	pool := identityPool()
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops)%2 == 1 {
			forceValueCollisions(t)
		}
		ops = ops[:min(len(ops), 3*2000)]
		m := newInternerModel()
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			m.step(t, step, fuzzValue(pool, ops[1], ops[2]), ops[0]%3 == 0)
		}
		m.agree(t)
	})
}
