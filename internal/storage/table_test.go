package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

// refRelation is the reference the flat table is checked against: the
// duplicate table and the dynamic indexes as maps from a 64-bit hash to a
// chained bucket of row indexes, with the bucket discipline the relation
// promises — every bucket ascends: rows enter an index in ascending order
// when it is extended, a replaced row leaves its old bucket in place and
// enters its new bucket at its row's position, a retracted row leaves
// everything.
type refRelation struct {
	arity int
	rows  [][]uint32
	gone  []bool
	exact map[uint64][]int32
	idx   map[uint32]*refIndex
}

type refIndex struct {
	entries map[uint64][]int32
	upTo    int
}

func newRefRelation(arity int) *refRelation {
	return &refRelation{arity: arity, exact: map[uint64][]int32{}, idx: map[uint32]*refIndex{}}
}

func (m *refRelation) find(row []uint32) int {
	for _, ri := range m.exact[hashRow(row)] {
		if slices.Equal(m.rows[ri], row) {
			return int(ri)
		}
	}
	return -1
}

func (m *refRelation) live() int {
	n := 0
	for _, g := range m.gone {
		if !g {
			n++
		}
	}
	return n
}

func (m *refRelation) insert(row []uint32) bool {
	if m.find(row) >= 0 {
		return false
	}
	h := hashRow(row)
	m.exact[h] = append(m.exact[h], int32(len(m.rows)))
	m.rows = append(m.rows, slices.Clone(row))
	m.gone = append(m.gone, false)
	return true
}

func refRemove(m map[uint64][]int32, h uint64, i int) {
	if k := slices.Index(m[h], int32(i)); k >= 0 {
		m[h] = slices.Delete(m[h], k, k+1)
	}
}

// extend covers the unindexed suffix of mask's index, creating it.
func (m *refRelation) extend(mask uint32) {
	ix := m.idx[mask]
	if ix == nil {
		ix = &refIndex{entries: map[uint64][]int32{}}
		m.idx[mask] = ix
	}
	for ; ix.upTo < len(m.rows); ix.upTo++ {
		if !m.gone[ix.upTo] {
			h := hashMasked(m.rows[ix.upTo], mask)
			ix.entries[h] = append(ix.entries[h], int32(ix.upTo))
		}
	}
}

func (m *refRelation) replace(i int, row []uint32) ReplaceOutcome {
	if m.gone[i] || slices.Equal(m.rows[i], row) {
		return ReplaceUnchanged
	}
	old := m.rows[i]
	refRemove(m.exact, hashRow(old), i)
	if m.find(row) >= 0 {
		for mask, ix := range m.idx {
			if i < ix.upTo {
				refRemove(ix.entries, hashMasked(old, mask), i)
			}
		}
		m.gone[i] = true
		return ReplaceRetracted
	}
	h := hashRow(row)
	m.exact[h] = append(m.exact[h], int32(i))
	for mask, ix := range m.idx {
		if i < ix.upTo && !maskedIDsEqual(old, row, mask) {
			refRemove(ix.entries, hashMasked(old, mask), i)
			nh := hashMasked(row, mask)
			k, _ := slices.BinarySearch(ix.entries[nh], int32(i))
			ix.entries[nh] = slices.Insert(ix.entries[nh], k, int32(i))
		}
	}
	m.rows[i] = slices.Clone(row)
	return ReplaceDone
}

// agree requires r and the reference to hold the same rows, the same
// membership and, in every index, the same buckets in the same order.
func (m *refRelation) agree(t *testing.T, r *Relation, step int) {
	t.Helper()
	if r.Len() != len(m.rows) || r.Live() != m.live() || r.Arity() != m.arity {
		t.Fatalf("step %d: len %d live %d arity %d, reference %d %d %d", step, r.Len(), r.Live(), r.Arity(), len(m.rows), m.live(), m.arity)
	}
	if r.exact.live != m.live() {
		t.Fatalf("step %d: duplicate table holds %d slots for %d live rows", step, r.exact.live, m.live())
	}
	if used := r.exact.live + r.exact.dead; used*4 > len(r.exact.slots)*3 {
		t.Fatalf("step %d: %d of %d slots used, above 3/4", step, used, len(r.exact.slots))
	}
	for i, row := range m.rows {
		if !slices.Equal(r.Row(i), row) {
			t.Fatalf("step %d: row %d is %v, reference %v", step, i, r.Row(i), row)
		}
		if got, want := r.findRow(row, hashRow(row)), m.find(row); got != want {
			t.Fatalf("step %d: row %d %v found at %d, reference %d", step, i, row, got, want)
		}
	}
	if len(r.indexes) != len(m.idx) {
		t.Fatalf("step %d: %d indexes, reference %d", step, len(r.indexes), len(m.idx))
	}
	for mask, want := range m.idx {
		ix := r.indexes[mask]
		if ix == nil || ix.upTo != want.upTo || len(ix.hashes) != len(want.entries) {
			t.Fatalf("step %d: index %b: %+v, reference covers %d rows in %d buckets", step, mask, ix, want.upTo, len(want.entries))
		}
		for h, bucket := range want.entries {
			if got := ix.rows(h); !slices.Equal(got, bucket) || !ascending(got) {
				t.Fatalf("step %d: index %b bucket %x is %v, reference %v (ascending)", step, mask, h, got, bucket)
			}
		}
	}
	// The live-row list, which no index comparison above covers.
	if live := r.liveSnapshot(); len(live) != m.live() || !ascending(live) {
		t.Fatalf("step %d: live rows %v, want %d ascending", step, live, m.live())
	}
}

// ascending reports whether rows strictly ascends — the order every lookup
// hands row indexes out in, which the matcher's row bound relies on
// (eval.Binding.RowBound stops at the first row past it).
func ascending(rows []int32) bool {
	for k := 1; k < len(rows); k++ {
		if rows[k-1] >= rows[k] {
			return false
		}
	}
	return true
}

// runTableModel decodes ops — three bytes each: kind, a, b — into one
// stream of inserts, replaces, probes, index extensions and freezes, and
// drives a Relation and the reference with it: every operation's outcome is
// compared, and the two structures in full after each every-th operation and
// the last. It is the body of the model test and of FuzzFlatTable.
func runTableModel(t *testing.T, ops []byte, every int) *Relation {
	r := NewRelation("p", 2)
	m := newRefRelation(2)
	fact := func(a, b byte) ast.Fact {
		return ast.NewFact("p", term.Int(int64(a)), term.Int(int64(b%16)))
	}
	masks := []uint32{1, 2, 3}
	for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
		kind, a, b := ops[0], ops[1], ops[2]
		switch kind % 8 {
		case 0, 1, 2: // insert
			got := r.Insert(meta("p", fact(a, b).Args...))
			if want := m.insert(r.internRow(fact(a, b).Args)); got != want {
				t.Fatalf("step %d: insert %v = %v, reference %v", step, fact(a, b), got, want)
			}
		case 3: // replace a stored row: moves between buckets, or retracts
			i := (int(a)<<8 | int(b)) % max(r.Len(), 1)
			if i >= r.Len() {
				break
			}
			f := fact(b, a)
			got := r.Replace(i, f)
			if want := m.replace(i, r.internRow(f.Args)); got != want {
				t.Fatalf("step %d: replace %d by %v = %v, reference %v", step, i, f, got, want)
			}
		case 4: // membership probe, never interning
			row, h, ok := r.resolve(fact(a, b).Args)
			if got, want := ok && r.ContainsRowHash(row, h), ok && m.find(row) >= 0; got != want {
				t.Fatalf("step %d: contains %v = %v, reference %v", step, fact(a, b), got, want)
			}
		case 5, 6: // index probe: builds or extends the mask's index, in bulk or row by row
			mask := masks[int(kind/8)%len(masks)]
			if got := r.LookupIDs(mask, r.internRow(fact(a, b).Args)); !ascending(got) {
				t.Fatalf("step %d: lookup %b of %v is %v, not ascending", step, mask, fact(a, b), got)
			}
			if got := r.LookupIDs(0, nil); !ascending(got) {
				t.Fatalf("step %d: live-row list %v is not ascending", step, got)
			}
			m.extend(mask)
		case 7: // Freeze: every existing index is extended
			r.Freeze()
			for mask := range m.idx {
				m.extend(mask)
			}
		}
		if step%every == 0 || len(ops) < 6 {
			m.agree(t, r, step)
		}
	}
	return r
}

// tableModelStream generates n operations from seed.
func tableModelStream(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 3*n)
	rng.Read(ops)
	return ops
}

// TestFlatTableModel drives the relation and the map-based reference with
// one generated stream: the duplicate table doubles several times, replaced
// rows leave deleted slots that later inserts reuse, index buckets grow,
// relocate and shrink.
func TestFlatTableModel(t *testing.T) {
	r := runTableModel(t, tableModelStream(1, 2500), 1)
	if len(r.exact.slots) < 64*tableMinSlots || r.Live() == r.Len() {
		t.Fatalf("the stream left %d slots, %d of %d rows live: it must double the table several times and retract", len(r.exact.slots), r.Live(), r.Len())
	}
}

// TestFlatTableModelOneHash is the same stream with every row and every
// masked key on one hash: one run of equal tags, told apart by ID only.
func TestFlatTableModelOneHash(t *testing.T) {
	forceCollisions(t)
	runTableModel(t, tableModelStream(2, 400), 1)
}

// FuzzFlatTable mutates the model tests' streams. Inputs are cut at 600
// operations — five doublings of the duplicate table — so the fuzzer spends
// its time on new streams, not on minimizing kilobytes of an old one.
func FuzzFlatTable(f *testing.F) {
	f.Add(tableModelStream(1, 600))
	f.Add(tableModelStream(2, 400))
	f.Fuzz(func(t *testing.T, ops []byte) {
		runTableModel(t, ops[:min(len(ops), 3*600)], 16)
	})
}

// TestFlatTableDeletedSlotReuse: a table cycling through remove and insert
// at a constant population stops growing — inserts take deleted slots, and a
// table clogged by them (at most 3/8 live) is rebuilt at its size.
func TestFlatTableDeletedSlotReuse(t *testing.T) {
	var tb flatTable
	hash := func(i int) uint64 { return hashRow([]uint32{uint32(i)}) }
	const n = 96
	for i := 0; i < n; i++ {
		tb.insert(hash(i), i)
	}
	size := 2 * len(tb.slots) // 96 of 128 slots live: the first clog doubles, no later one does
	reused := false
	for i := 0; i < 50*n; i++ {
		tb.remove(hash(i), i)
		dead := tb.dead
		tb.insert(hash(i+n), i+n)
		reused = reused || tb.dead < dead
		if tb.live != n || len(tb.slots) > size {
			t.Fatalf("cycle %d: %d live in %d slots, want %d in at most %d", i, tb.live, len(tb.slots), n, size)
		}
	}
	if !reused {
		t.Fatal("no insert ever took a deleted slot")
	}
	for i := 50 * n; i < 51*n; i++ {
		tag := tagOf(hash(i))
		found := false
		for ref, p := tb.seek(tag, tb.home(tag)); ref >= 0; ref, p = tb.seek(tag, p) {
			found = found || ref == i
		}
		if !found {
			t.Fatalf("reference %d lost", i)
		}
	}
}

// TestLookupAliasing pins what a caller holding a LookupIDs result may rely
// on: the slice is capped at its length, and it keeps reading what it read
// while its bucket grows in place, moves, or the arena is reallocated.
func TestLookupAliasing(t *testing.T) {
	r := NewRelation("p", 2)
	add := func(k, v int) { r.Insert(meta("p", term.Int(int64(k)), term.Int(int64(v)))) }
	look := func(k int) []int32 {
		return r.Lookup(1, []term.Value{term.Int(int64(k)), {}})
	}
	add(1, 0)
	add(2, 1)
	add(2, 2)
	held1, held2 := look(1), look(2)
	ix := r.indexes[1]
	if fmt.Sprint(held1, held2) != "[0] [1 2]" || cap(held1) != 1 || cap(held2) != 2 {
		t.Fatalf("buckets %v (cap %d) %v (cap %d), want [0] and [1 2] capped at their length", held1, cap(held1), held2, cap(held2))
	}
	// Bucket 2 is the arena's tail: it grows where it is.
	off2 := ix.spans[ix.find(hashMasked(r.Row(1), 1))].off
	add(2, 3)
	if got := look(2); fmt.Sprint(got) != "[1 2 3]" || ix.spans[ix.find(hashMasked(r.Row(1), 1))].off != off2 {
		t.Fatalf("tail bucket: %v, moved from offset %d", got, off2)
	}
	// Bucket 1 is not: it moves behind bucket 2 and leaves its region alone.
	off1 := ix.spans[ix.find(hashMasked(r.Row(0), 1))].off
	add(1, 4)
	if got := look(1); fmt.Sprint(got) != "[0 4]" || ix.spans[ix.find(hashMasked(r.Row(0), 1))].off == off1 {
		t.Fatalf("inner bucket: %v, still at offset %d", got, off1)
	}
	// Appending to a held slice copies: it cannot reach the neighbour.
	_ = append(held1, 99)
	if got := look(2); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("append to the neighbouring bucket's slice clobbered %v", got)
	}
	// Grow bucket 1 until the arena itself is reallocated.
	arena := &ix.arena[0]
	for v := 5; arena == &ix.arena[0]; v++ {
		add(1, v)
		look(1)
	}
	if fmt.Sprint(held1, held2) != "[0] [1 2]" {
		t.Fatalf("held slices now read %v %v, want [0] [1 2]", held1, held2)
	}
	if got := look(2); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("bucket 2 after the arena moved: %v", got)
	}
}

// probeCost returns the slots a probe for h visits: up to the slot holding
// ref, or to the empty slot that ends the run when ref is -1.
func probeCost(tb *flatTable, h uint64, ref int) int {
	mask := len(tb.slots) - 1
	for n, p := 1, tb.home(tagOf(h)); ; n, p = n+1, p+1 {
		s := tb.slots[p&mask]
		if s == 0 || (ref >= 0 && s == tagOf(h)|uint64(ref+1)) {
			return n
		}
	}
}

// TestFlatTableSequentialIDs: rows of small sequential IDs — what an
// interner hands out — filled to the growth threshold (3/4) keep probe runs
// at what linear probing gives uniformly random keys at that load, about 2.5
// slots for a hit and 8.5 for a miss (measured 2.6 / 9.6 at worst); bounded
// here at 3 and 11. Positions taken from the hash's low bits measure 15.8
// slots per miss on binary rows, from the tag's low bits 12.5 on unary ones.
func TestFlatTableSequentialIDs(t *testing.T) {
	const n = 3 * 4096 / 4 * 4 // 3/4 of 16384 slots
	for arity := 1; arity <= 3; arity++ {
		rowOf := func(i int) []uint32 {
			row := []uint32{uint32(i + 1), uint32(i + 2), uint32(i/7 + 1)}
			return row[:arity]
		}
		var tb flatTable
		for i := 0; i < n; i++ {
			tb.insert(hashRow(rowOf(i)), i)
		}
		if len(tb.slots) != 16384 || tb.live != n {
			t.Fatalf("arity %d: %d rows in %d slots, want %d in 16384", arity, tb.live, len(tb.slots), n)
		}
		hit, miss := 0, 0
		for i := 0; i < n; i++ {
			hit += probeCost(&tb, hashRow(rowOf(i)), i)
			miss += probeCost(&tb, hashRow(rowOf(n+i)), -1)
		}
		meanHit, meanMiss := float64(hit)/n, float64(miss)/n
		t.Logf("arity %d: mean probe run %.2f slots for a stored row, %.2f for a new one", arity, meanHit, meanMiss)
		if meanHit > 3 || meanMiss > 11 {
			t.Errorf("arity %d: mean probe run %.2f (stored) / %.2f (new) slots, want at most 3 / 11", arity, meanHit, meanMiss)
		}
	}
}

// TestFrozenConcurrentReads runs the duplicate probe of the admission
// pre-pass from four goroutines over one frozen relation (under -race): it
// is a pure read.
func TestFrozenConcurrentReads(t *testing.T) {
	r := fillRel(500)
	r.EnsureIndex(1)
	r.Freeze()
	absent := []uint32{r.Row(0)[0], r.Row(0)[0]}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < r.Len(); i += 2 {
				row := r.Row(i)
				if !r.ContainsRowHash(row, HashRow(row)) {
					t.Errorf("row %d not found", i)
				}
				if r.ContainsRowHash(absent, HashRow(absent)) {
					t.Error("absent row found")
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkRelationInsert is the insert kernel without the harness: n new
// binary rows of sequential values into a fresh relation ("new"), and the
// same rows offered again ("duplicate").
func BenchmarkRelationInsert(b *testing.B) {
	const n = 1 << 15
	facts := make([]ast.Fact, n)
	for i := range facts {
		facts[i] = ast.NewFact("p", term.Int(int64(i)), term.Int(int64(i/3)))
	}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewRelation("p", 2)
			for _, f := range facts {
				r.Insert(meta("p", f.Args...))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	})
	b.Run("duplicate", func(b *testing.B) {
		r := NewRelation("p", 2)
		for _, f := range facts {
			r.Insert(meta("p", f.Args...))
		}
		m := meta("p", facts[0].Args...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Fact = facts[i%n]
			r.Insert(m)
		}
	})
}

// BenchmarkIndexBuild is the index kernel without the harness, at 1, 4 and
// 32 rows per key: "bulk" builds the index over a loaded relation in one
// EnsureIndex, "incremental" inserts and extends the index row by row, so
// buckets grow one row at a time (the inserts are part of the time).
func BenchmarkIndexBuild(b *testing.B) {
	const n = 1 << 15
	for _, perKey := range []int{1, 4, 32} {
		facts := make([]ast.Fact, n)
		for i := range facts {
			facts[i] = ast.NewFact("p", term.Int(int64(i%(n/perKey))), term.Int(int64(i)))
		}
		b.Run(fmt.Sprintf("bulk/%dperkey", perKey), func(b *testing.B) {
			r := NewRelation("p", 2)
			for _, f := range facts {
				r.Insert(meta("p", f.Args...))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delete(r.indexes, 1)
				r.EnsureIndex(1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
		b.Run(fmt.Sprintf("incremental/%dperkey", perKey), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRelation("p", 2)
				for _, f := range facts {
					r.Insert(meta("p", f.Args...))
					r.EnsureIndex(1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
