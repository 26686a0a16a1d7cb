package storage

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/term"
)

// TestNullaryFactInsert: a zero-arity fact resolves to the empty row and
// must dedup like any fact.
func TestNullaryFactInsert(t *testing.T) {
	r := NewRelation("flag", 0)
	if r.Contains(ast.NewFact("flag")) {
		t.Fatal("empty relation must not contain the nullary fact")
	}
	if !r.Insert(meta("flag")) {
		t.Fatal("first nullary insert must succeed")
	}
	if r.Insert(meta("flag")) {
		t.Fatal("duplicate nullary insert must fail")
	}
	if !r.Contains(ast.NewFact("flag")) {
		t.Fatal("contains after insert")
	}
	if r.Len() != 1 {
		t.Fatalf("len: %d", r.Len())
	}
}

// TestResolveHandOff: resolve's row and hash are what ContainsRowHash and
// InsertPrepared take — the explicit probe → insert hand-off — padded to the
// stride, never interning, and refusing what cannot be stored.
func TestResolveHandOff(t *testing.T) {
	r := NewRelation("p", 3)
	r.Insert(meta("p", term.Int(1), term.String("a"), term.Int(9)))
	before := r.Interner().Len()
	if _, _, ok := r.resolve([]term.Value{term.Int(1), term.String("never")}); ok {
		t.Fatal("a never-interned value must not resolve")
	}
	if _, _, ok := r.resolve([]term.Value{term.Int(1), term.Int(1), term.Int(1), term.Int(1)}); ok {
		t.Fatal("args beyond the stride must not resolve")
	}
	row, h, ok := r.resolve([]term.Value{term.Int(1), term.String("a")})
	if !ok || len(row) != 3 || row[2] != 0 || h != HashRow(row) {
		t.Fatalf("resolve = %v, %d, %v; want a padded stride-3 row with its hash", row, h, ok)
	}
	if r.Interner().Len() != before {
		t.Fatal("resolve interned a value")
	}
	if r.ContainsRowHash(row, h) {
		t.Fatal("p(1,a) is not stored: p(1,a,9) is")
	}
	if !r.InsertPrepared(meta("p", term.Int(1), term.String("a")), row, h) {
		t.Fatal("insert after a missed probe must succeed")
	}
	strat := core.NewStrategy(&analysis.Result{})
	if r.InsertEDB([]term.Value{term.Int(1), term.String("a")}, strat) != nil {
		t.Fatal("InsertEDB admitted a stored fact")
	}
	if m := r.InsertEDB([]term.Value{term.String("never")}, strat); m == nil || r.At(r.Len()-1) != m {
		t.Fatal("InsertEDB must store a fact with never-interned values and return its metadata")
	}
}

// TestSetShardsRebucket: re-bucketing the exact table preserves dedup and
// probe behavior at every shard count, before and after further inserts.
func TestSetShardsRebucket(t *testing.T) {
	r := NewRelation("p", 2)
	for i := 0; i < 100; i++ {
		r.Insert(meta("p", term.Int(int64(i)), term.String(fmt.Sprint(i))))
	}
	for _, n := range []int{8, 1, 3, 256} {
		r.SetShards(n)
		want := ceilPow2(n)
		if r.shards != want {
			t.Fatalf("SetShards(%d): %d shards, want %d", n, r.shards, want)
		}
		for i := 0; i < 100; i++ {
			f := ast.NewFact("p", term.Int(int64(i)), term.String(fmt.Sprint(i)))
			if !r.Contains(f) {
				t.Fatalf("shards=%d: lost fact %v", n, f)
			}
			if r.Insert(meta("p", term.Int(int64(i)), term.String(fmt.Sprint(i)))) {
				t.Fatalf("shards=%d: duplicate admitted for %v", n, f)
			}
			row := r.Row(i)
			if !r.ContainsRowHash(row, HashRow(row)) {
				t.Fatalf("shards=%d: ContainsRowHash missed row %d", n, i)
			}
		}
		if r.Contains(ast.NewFact("p", term.Int(-1), term.String("x"))) {
			t.Fatalf("shards=%d: phantom fact", n)
		}
	}
	// Growth after re-bucketing stays consistent.
	r.SetShards(4)
	if r.Insert(meta("p", term.Int(7), term.String("7"))) {
		t.Fatal("duplicate after re-bucket")
	}
	if !r.Insert(meta("p", term.Int(1000), term.String("new"))) {
		t.Fatal("fresh insert after re-bucket")
	}
}

// TestInsertPrepared: the prepared insert dedups against stored rows,
// admits fresh ones identically to Insert, and falls back to the classic
// path when the row's stride no longer matches the relation.
func TestInsertPrepared(t *testing.T) {
	in := NewInterner()
	r := NewRelationInterned("p", 2, in)
	r.SetShards(4)
	row1 := []uint32{in.Intern(term.Int(1)), in.Intern(term.String("a"))}
	m1 := meta("p", term.Int(1), term.String("a"))
	if !r.InsertPrepared(m1, row1, HashRow(row1)) {
		t.Fatal("fresh prepared insert must succeed")
	}
	if r.InsertPrepared(meta("p", term.Int(1), term.String("a")), row1, HashRow(row1)) {
		t.Fatal("duplicate prepared insert must fail")
	}
	if !r.Contains(ast.NewFact("p", term.Int(1), term.String("a"))) {
		t.Fatal("Contains must see the prepared insert")
	}
	if !r.ContainsRowHash(row1, HashRow(row1)) {
		t.Fatal("ContainsRowHash must see the prepared insert")
	}
	// Interleaving with classic Insert keeps one dedup table.
	if r.Insert(meta("p", term.Int(1), term.String("a"))) {
		t.Fatal("classic duplicate of a prepared insert must fail")
	}
	if !r.Insert(meta("p", term.Int(2), term.String("b"))) {
		t.Fatal("classic fresh insert")
	}
	row2 := []uint32{in.Intern(term.Int(2)), in.Intern(term.String("b"))}
	if r.InsertPrepared(meta("p", term.Int(2), term.String("b")), row2, HashRow(row2)) {
		t.Fatal("prepared duplicate of a classic insert must fail")
	}
	// Stride drift: a short row falls back to Insert, which re-interns.
	short := []uint32{in.Intern(term.Int(3))}
	if !r.InsertPrepared(meta("p", term.Int(3)), short, HashRow(short)) {
		t.Fatal("drifted prepared insert must fall back and succeed")
	}
	if !r.Contains(ast.NewFact("p", term.Int(3))) {
		t.Fatal("fallback insert must be stored")
	}
}

// TestRetractGen: the retraction generation advances exactly on retract
// (via Replace supersession), invalidating pre-pass verdicts.
func TestRetractGen(t *testing.T) {
	r := NewRelation("p", 2)
	r.Insert(meta("p", term.Int(1), term.Int(10)))
	r.Insert(meta("p", term.Int(1), term.Int(20)))
	if r.RetractGen() != 0 {
		t.Fatalf("gen after inserts: %d", r.RetractGen())
	}
	// Replacing row 0 with the fact already stored at row 1 retracts it.
	if got := r.Replace(0, ast.NewFact("p", term.Int(1), term.Int(20))); got != ReplaceRetracted {
		t.Fatalf("replace outcome: %v", got)
	}
	if r.RetractGen() != 1 {
		t.Fatalf("gen after retract: %d", r.RetractGen())
	}
}

// prepassFixture builds cands large enough to trigger the parallel
// pre-pass (≥ prepassMinCands): nStored candidates duplicating stored
// facts, nFresh fresh ones, then one batch-duplicate of each fresh one.
func prepassFixture(t *testing.T, r *Relation, in *Interner, nStored, nFresh int) []PrepassCand {
	t.Helper()
	var cands []PrepassCand
	addRow := func(a, b int64) {
		row := []uint32{in.Intern(term.Int(a)), in.Intern(term.Int(b))}
		cands = append(cands, PrepassCand{Rel: r, Row: row, Hash: HashRow(row), Gen: r.RetractGen()})
	}
	for i := 0; i < nStored; i++ {
		r.Insert(meta("p", term.Int(int64(i)), term.Int(int64(i))))
	}
	for i := 0; i < nStored; i++ {
		addRow(int64(i), int64(i))
	}
	for i := 0; i < nFresh; i++ {
		addRow(int64(1000+i), int64(i))
	}
	for i := 0; i < nFresh; i++ {
		addRow(int64(1000+i), int64(i))
	}
	return cands
}

func runPrepassOn(cands []PrepassCand, shards int, meter *core.Meter) ([]uint8, []int32) {
	verdict := make([]uint8, len(cands))
	dupOf := make([]int32, len(cands))
	for i := range dupOf {
		dupOf[i] = -1
	}
	RunPrepass(cands, verdict, dupOf, shards, meter)
	return verdict, dupOf
}

// TestRunPrepassVerdicts: stored duplicates, fresh candidates and
// batch-local duplicates each get the exact verdict, and the per-shard
// meter counters account for every candidate.
func TestRunPrepassVerdicts(t *testing.T) {
	in := NewInterner()
	r := NewRelationInterned("p", 2, in)
	r.SetShards(4)
	const nStored, nFresh = 100, 120
	cands := prepassFixture(t, r, in, nStored, nFresh)
	meter := core.NewMeter(1 << 20)
	meter.SetShards(4)
	verdict, dupOf := runPrepassOn(cands, 4, meter)
	for i := 0; i < nStored; i++ {
		if verdict[i] != PrepassDupStored {
			t.Fatalf("cand %d: verdict %d, want DupStored", i, verdict[i])
		}
	}
	for i := nStored; i < nStored+nFresh; i++ {
		if verdict[i] != PrepassFresh {
			t.Fatalf("cand %d: verdict %d, want Fresh", i, verdict[i])
		}
	}
	for i := nStored + nFresh; i < len(cands); i++ {
		if verdict[i] != PrepassDupBatch {
			t.Fatalf("cand %d: verdict %d, want DupBatch", i, verdict[i])
		}
		if want := int32(i - nFresh); dupOf[i] != want {
			t.Fatalf("cand %d: dupOf %d, want %d", i, dupOf[i], want)
		}
	}
	scans, dups, _ := meter.ShardStats()
	var totScan, totDup int64
	for s := range scans {
		totScan += scans[s]
		totDup += dups[s]
	}
	if totScan != int64(len(cands)) {
		t.Fatalf("shard scans: %d, want %d", totScan, len(cands))
	}
	if totDup != int64(nStored+nFresh) {
		t.Fatalf("shard dups: %d, want %d", totDup, nStored+nFresh)
	}
}

// TestRunPrepassSmallBatch: below the fan-out threshold every verdict
// stays Unknown — the merge re-probes, so sharding small batches would
// only add goroutine overhead.
func TestRunPrepassSmallBatch(t *testing.T) {
	in := NewInterner()
	r := NewRelationInterned("p", 2, in)
	cands := prepassFixture(t, r, in, 10, 20)
	verdict, _ := runPrepassOn(cands, 4, nil)
	for i, v := range verdict {
		if v != PrepassUnknown {
			t.Fatalf("cand %d: verdict %d, want Unknown (batch below threshold)", i, v)
		}
	}
}

// TestRunPrepassSerialShardsSkips: shards <= 1 never fans out.
func TestRunPrepassSerialShardsSkips(t *testing.T) {
	in := NewInterner()
	r := NewRelationInterned("p", 2, in)
	cands := prepassFixture(t, r, in, 150, 150)
	verdict, _ := runPrepassOn(cands, 1, nil)
	for i, v := range verdict {
		if v != PrepassUnknown {
			t.Fatalf("cand %d: verdict %d, want Unknown (serial)", i, v)
		}
	}
}

// TestRunPrepassCollision: with every hash forced equal, all candidates
// land in one shard and dedup must fall through to row comparison —
// distinct rows stay fresh, equal rows are still caught.
func TestRunPrepassCollision(t *testing.T) {
	old := hashRow
	hashRow = func([]uint32) uint64 { return 7 }
	defer func() { hashRow = old }()

	in := NewInterner()
	r := NewRelationInterned("p", 2, in)
	r.SetShards(4)
	const nStored, nFresh = 100, 120
	cands := prepassFixture(t, r, in, nStored, nFresh)
	verdict, dupOf := runPrepassOn(cands, 4, nil)
	for i := 0; i < nStored; i++ {
		if verdict[i] != PrepassDupStored {
			t.Fatalf("cand %d: verdict %d, want DupStored under collision", i, verdict[i])
		}
	}
	for i := nStored; i < nStored+nFresh; i++ {
		if verdict[i] != PrepassFresh {
			t.Fatalf("cand %d: verdict %d, want Fresh under collision", i, verdict[i])
		}
	}
	for i := nStored + nFresh; i < len(cands); i++ {
		if verdict[i] != PrepassDupBatch || dupOf[i] != int32(i-nFresh) {
			t.Fatalf("cand %d: verdict %d dupOf %d under collision", i, verdict[i], dupOf[i])
		}
	}
}

// TestRunPrepassSkipsNilRel: placeholder candidates (fallback entries,
// drifted heads) are ignored by every shard.
func TestRunPrepassSkipsNilRel(t *testing.T) {
	in := NewInterner()
	r := NewRelationInterned("p", 2, in)
	cands := prepassFixture(t, r, in, 150, 100)
	for i := 0; i < len(cands); i += 3 {
		cands[i] = PrepassCand{}
	}
	verdict, _ := runPrepassOn(cands, 4, nil)
	for i, v := range verdict {
		if i%3 == 0 && v != PrepassUnknown {
			t.Fatalf("placeholder cand %d got verdict %d", i, v)
		}
	}
}

// TestDatabaseSetShards: the shard count applies to present and future
// relations.
func TestDatabaseSetShards(t *testing.T) {
	db := NewDatabase()
	before := db.Rel("a", 2)
	db.SetShards(6) // rounds to 8
	if db.shards != 8 {
		t.Fatalf("shards: %d, want 8", db.shards)
	}
	if before.shards != 8 {
		t.Fatalf("existing relation shards: %d", before.shards)
	}
	if db.Rel("b", 1).shards != 8 {
		t.Fatalf("new relation shards: %d", db.Rel("b", 1).shards)
	}
}
