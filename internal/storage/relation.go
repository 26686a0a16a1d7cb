// Package storage implements the in-memory fact store of the Vadalog
// system: append-only relations with exact-duplicate elimination, the
// dynamic in-memory indexes that back the slot-machine join (paper
// Sec. 4) and the active constant domain (ACDom).
//
// Facts are stored as interned tuples: every term.Value is mapped to a
// dense uint32 ID by the database-wide Interner, and each relation keeps
// its rows as a flat []uint32 (arity IDs per fact). Duplicate checks and
// dynamic-index probes hash those IDs with FNV-1a into uint64 keys and look
// them up in one kind of table (flatTable, table.go): open addressing over a
// []uint64 of tag+reference slots, the reference a row index for the
// duplicate check and a bucket for an index, whose rows lie contiguous in
// the index's one []int32 arena. The symbol table is a flatTable too, from
// term.Value.Hash to the ID, its values kept in fixed-size pages. Every
// candidate is verified — rows by ID comparison, values by term.Identical —
// so collisions are resolved exactly; no probe allocates, no stored row or
// value costs an allocation of its own, and none of the tables holds a
// pointer for the collector to follow.
package storage

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/term"
)

// siteInsert guards fact admission. Insert has no error path (it reports
// new/duplicate), so the site is panic-only; it fires before the relation
// mutates, keeping the store consistent through an injected crash.
var siteInsert = fault.NewPanicSite("storage.insert")

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mixID folds one interned ID into an FNV-1a hash state, byte by byte.
func mixID(h uint64, id uint32) uint64 {
	h ^= uint64(id & 0xff)
	h *= fnvPrime64
	h ^= uint64((id >> 8) & 0xff)
	h *= fnvPrime64
	h ^= uint64((id >> 16) & 0xff)
	h *= fnvPrime64
	h ^= uint64(id >> 24)
	h *= fnvPrime64
	return h
}

// hashRow is the FNV-1a hash of a full interned row. It is a variable
// only so collision-handling tests can force every row into one bucket.
var hashRow = func(row []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range row {
		h = mixID(h, id)
	}
	return h
}

// hashMasked is the FNV-1a hash of the masked positions of an interned
// row. Like hashRow it is a variable only for collision tests.
var hashMasked = func(row []uint32, mask uint32) uint64 {
	h := uint64(fnvOffset64)
	for i, id := range row {
		if mask&(1<<uint(i)) != 0 {
			h = mixID(h, id)
		}
	}
	return h
}

// Relation stores the facts of one predicate together with their
// termination-strategy metadata. Facts are kept in insertion order;
// duplicates (by exact interned tuple, null identities included) are
// rejected.
//
// The stride is a contract: every row a relation stores, replaces or is
// probed with has exactly its arity, which the compile fixes per predicate
// and admit.Core.LoadRow enforces where data enters. A row of another width
// reaching a mutating method is a programming error and panics (checkWidth).
type Relation struct {
	name  string
	arity int
	in    *Interner
	metas []*core.FactMeta

	// rows holds the interned tuples flattened: row i occupies
	// rows[i*arity : (i+1)*arity]. No stored row holds the invalid ID 0.
	rows []uint32

	// exact is the duplicate table: one slot per live row, under the row's
	// full hash.
	exact flatTable

	// shards and retractGen serve only the pre-pass kernel of shard.go and
	// leave with it: the partition count SetShards recorded (the kernel
	// partitions candidates itself) and the retractions so far, which a
	// PrepassCand snapshots.
	shards     int
	retractGen uint64

	// indexes maps a position bitmask to a dynamically built hash index
	// over those positions. Indexes are created on first lookup and
	// extended lazily to cover facts appended since the last probe —
	// the "dynamic indexing" of the slot machine join.
	indexes map[uint32]*dynIndex

	// log is the delta stream consumed by cursor-based engines: nil means
	// "identical to row order". It is materialized by the first Replace,
	// which re-appends the replaced row's index so the superseding fact is
	// delivered as a fresh delta without disturbing existing cursors.
	log []int32

	// liveRows caches the ascending row indexes of the live (non-retracted)
	// rows; liveUpTo counts how many stored rows have been folded into it.
	// The cache is extended lazily by full-scan lookups (and eagerly by
	// Freeze) and invalidated by retraction, so mask-0 probes stop
	// allocating a fresh slice per call.
	liveRows []int32
	liveUpTo int

	// retracted counts rows whose metadata is marked Retracted: physically
	// present (row indexes stay stable) but no longer part of the
	// database — excluded from lookups, duplicate checks and Facts.
	retracted int

	// sketches are the planner's per-column distinct estimates (see
	// stats.go), maintained at insert/replace.
	sketches []distinctSketch

	scratch  []uint32 // reusable row buffer for Insert/InsertEDB/resolve
	probeBuf []uint32 // reusable probe-ID buffer for value-based Lookup
	replBuf  []uint32 // reusable old-row copy for Replace
}

// NewRelation creates an empty relation for pred with the given arity
// and a private interner (standalone use, e.g. baseline policies and
// tests). Relations inside a Database share its interner via
// NewRelationInterned.
func NewRelation(pred string, arity int) *Relation {
	return NewRelationInterned(pred, arity, NewInterner())
}

// NewRelationInterned creates an empty relation whose tuples intern
// through the shared symbol table in.
func NewRelationInterned(pred string, arity int, in *Interner) *Relation {
	return &Relation{
		name:    pred,
		arity:   arity,
		in:      in,
		shards:  1,
		indexes: make(map[uint32]*dynIndex),
	}
}

// SetShards records the partition count of the pre-pass kernel (rounded up
// to a power of two, minimum 1). The duplicate table itself is one flat
// table at every count.
func (r *Relation) SetShards(n int) { r.shards = ceilPow2(n) }

// ceilPow2 rounds n up to the nearest power of two, minimum 1, capped at
// 256 (more shards than that buys nothing for a dedup table).
func ceilPow2(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 256 {
		n = 256
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// RetractGen counts retractions performed so far, for PrepassCand.Gen.
func (r *Relation) RetractGen() uint64 { return r.retractGen }

// HashRow returns the duplicate-table hash of a fully interned row. It is
// the hash ContainsRowHash and InsertPrepared expect; exporting the
// wrapper (not the variable) keeps collision-test overrides effective.
func HashRow(row []uint32) uint64 { return hashRow(row) }

// Name returns the predicate name.
func (r *Relation) Name() string { return r.name }

// Arity returns the declared arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of stored rows, retracted rows included (rows
// keep their index for the lifetime of the relation; see Live for the
// number of facts actually in the database).
func (r *Relation) Len() int { return len(r.metas) }

// Live returns the number of non-retracted facts.
func (r *Relation) Live() int { return len(r.metas) - r.retracted }

// At returns the i-th stored fact.
func (r *Relation) At(i int) *core.FactMeta { return r.metas[i] }

// LiveAt returns the n-th live (non-retracted) fact, nil when fewer than
// n+1 live facts exist. With no retractions (the overwhelmingly common
// case) it is a direct index; otherwise it reads the live-row cache, which
// a retraction rebuilds once, not every call.
func (r *Relation) LiveAt(n int) *core.FactMeta {
	if r.retracted == 0 {
		if n < len(r.metas) {
			return r.metas[n]
		}
		return nil
	}
	if live := r.liveSnapshot(); n < len(live) {
		return r.metas[live[n]]
	}
	return nil
}

// DeltaLen returns the length of the relation's delta stream: every
// insertion contributes one event, and every in-place Replace re-appends
// the replaced row so cursor-based consumers observe the superseding fact
// as a fresh delta.
func (r *Relation) DeltaLen() int {
	if r.log == nil {
		return len(r.metas)
	}
	return len(r.log)
}

// DeltaAt returns the fact of the i-th delta event. Consumers must skip
// events whose metadata is marked Retracted.
func (r *Relation) DeltaAt(i int) *core.FactMeta {
	if r.log == nil {
		return r.metas[i]
	}
	return r.metas[r.log[i]]
}

// Row returns the interned tuple of the i-th stored fact. The slice
// aliases the relation's storage; callers must not modify or retain it
// across inserts.
func (r *Relation) Row(i int) []uint32 {
	return r.rows[i*r.arity : (i+1)*r.arity]
}

// Interner exposes the symbol table this relation's tuples intern
// through.
func (r *Relation) Interner() *Interner { return r.in }

// Bytes returns the memory the relation's own arrays hold — rows, metadata
// pointers, delta log, live-row cache, duplicate table and every index —
// from their capacities. The facts the metadata points at are not counted.
func (r *Relation) Bytes() int64 {
	b := int64(4*cap(r.rows) + 8*cap(r.metas) + 4*cap(r.log) + 4*cap(r.liveRows) + 8*cap(r.exact.slots))
	//vadalint:ordered integer fold; bytes is a pure size read
	for _, ix := range r.indexes {
		b += ix.bytes()
	}
	return b
}

// checkWidth enforces the stride contract (see Relation) on a row of n
// values about to be stored.
func (r *Relation) checkWidth(n int) {
	if n != r.arity {
		panic(fmt.Sprintf("storage: %s has arity %d, not %d: a row of another width reached the store", r.name, r.arity, n))
	}
}

// internRow encodes args into r.scratch, interning new values.
func (r *Relation) internRow(args []term.Value) []uint32 {
	row := r.scratch[:0]
	for _, v := range args {
		row = append(row, r.in.Intern(v))
	}
	r.scratch = row
	return row
}

// rowEqual reports whether stored row ri equals row (stride-length).
func (r *Relation) rowEqual(ri int, row []uint32) bool {
	stored := r.rows[ri*r.arity : (ri+1)*r.arity]
	for i, id := range stored {
		if id != row[i] {
			return false
		}
	}
	return true
}

// Insert appends m unless an exactly equal fact is already stored.
// It reports whether the fact was new.
func (r *Relation) Insert(m *core.FactMeta) bool {
	// The injection site fires before any mutation: an injected crash
	// mid-batch leaves the relation exactly as admitted so far, and the
	// engines' requeue paths re-derive the rest on resume.
	siteInsert.Hit()
	r.checkWidth(len(m.Fact.Args))
	row := r.internRow(m.Fact.Args)
	return r.insertRow(m, row, hashRow(row))
}

// insertRow is the shared admission tail of Insert and InsertPrepared:
// duplicate probe, then appendRow. row must have exactly the relation's
// arity.
func (r *Relation) insertRow(m *core.FactMeta, row []uint32, h uint64) bool {
	if r.ContainsRowHash(row, h) {
		return false
	}
	r.appendRow(m, row, h)
	return true
}

// appendRow stores a row already known to be new in every structure and
// records its index on m.
func (r *Relation) appendRow(m *core.FactMeta, row []uint32, h uint64) {
	r.exact.insert(h, len(r.metas))
	if r.log != nil {
		r.log = append(r.log, int32(len(r.metas)))
	}
	m.SetRowIndex(len(r.metas))
	r.metas = append(r.metas, m)
	r.rows = append(r.rows, row...)
	r.observeRow(row)
}

// ContainsRowHash reports whether a fact whose interned row is exactly row
// (stride = the relation's arity; h = HashRow(row)) is stored — the
// duplicate check of every admission path: callers hold the row and its
// hash (from the head-row builder) and hand the same pair to InsertPrepared
// when the probe misses. A pure read.
func (r *Relation) ContainsRowHash(row []uint32, h uint64) bool {
	return r.findRow(row, h) >= 0
}

// findRow returns the index of the live row exactly equal to row (stride =
// the relation's arity; h = HashRow(row)), -1 when none is stored: it walks
// the run of slots carrying h's tag and verifies each candidate by ID. A
// pure read.
func (r *Relation) findRow(row []uint32, h uint64) int {
	tag := tagOf(h)
	for ri, p := r.exact.seek(tag, r.exact.home(tag)); ri >= 0; ri, p = r.exact.seek(tag, p) {
		if r.rowEqual(ri, row) {
			return ri
		}
	}
	return -1
}

// InsertPrepared is the row-first insert: it appends m using the interned
// row and hash its caller already holds (admit.Core.admit: the row it
// probed with, or completed by interning the values no stored fact had),
// skipping the re-intern/re-hash of Insert. It reports whether the fact was
// new.
func (r *Relation) InsertPrepared(m *core.FactMeta, row []uint32, h uint64) bool {
	// Same crash seam as Insert: fire before any mutation.
	siteInsert.Hit()
	r.checkWidth(len(row))
	return r.insertRow(m, row, h)
}

// ReplaceOutcome reports what Replace did with a superseded row.
type ReplaceOutcome int

// Replace outcomes.
const (
	// ReplaceUnchanged: the new fact equals the stored one (or the row is
	// already retracted); nothing changed.
	ReplaceUnchanged ReplaceOutcome = iota
	// ReplaceDone: the row was overwritten in place and re-appended to the
	// delta stream.
	ReplaceDone
	// ReplaceRetracted: the new fact is already stored in another row, so
	// the superseded row was retracted instead of duplicated.
	ReplaceRetracted
)

// Replace supersedes the fact stored at row i with f — the retraction
// primitive behind deterministic monotonic aggregation: an improving
// aggregate overwrites the intermediate it replaces instead of
// accumulating next to it. The row keeps its index (engine cursors, the
// delta log and recorded Emitted rows stay valid), the duplicate-check
// entry is rehashed, every dynamic index covering the row is updated in
// place, and the row's FactMeta is updated via core.ReplaceFact (same
// roots and provenance — a supersession, not a new derivation). When f is
// already stored elsewhere in the relation, the superseded row is
// retracted instead, so the relation never holds duplicate facts.
func (r *Relation) Replace(i int, f ast.Fact) ReplaceOutcome {
	if i < 0 || i >= len(r.metas) || r.metas[i].Retracted {
		return ReplaceUnchanged
	}
	r.checkWidth(len(f.Args))
	newRow := r.internRow(f.Args)
	if r.rowEqual(i, newRow) {
		return ReplaceUnchanged
	}
	newH := hashRow(newRow)
	if r.findRow(newRow, newH) >= 0 { // another row: row i differs from newRow
		r.retract(i)
		return ReplaceRetracted
	}
	old := append(r.replBuf[:0], r.Row(i)...)
	r.replBuf = old
	r.exact.remove(hashRow(old), i)
	copy(r.rows[i*r.arity:(i+1)*r.arity], newRow)
	r.exact.insert(newH, i)
	//vadalint:ordered each dynamic index is updated independently from its own mask and buckets
	for _, ix := range r.indexes {
		if i >= ix.upTo || maskedIDsEqual(old, newRow, ix.mask) {
			continue
		}
		ix.remove(hashMasked(old, ix.mask), int32(i))
		ix.insertSorted(ix.bucketFor(hashMasked(newRow, ix.mask)), int32(i))
	}
	r.metas[i].ReplaceFact(f)
	r.observeRow(newRow)
	if r.log == nil {
		r.log = make([]int32, len(r.metas), len(r.metas)+8)
		for k := range r.log {
			r.log[k] = int32(k)
		}
	}
	r.log = append(r.log, int32(i))
	return ReplaceDone
}

// retract removes row i from the duplicate-check table and every dynamic
// index and marks its metadata Retracted. The row keeps its position so
// indexes into the relation stay stable; it is simply no longer a fact.
// The live-row cache is invalidated (rebuilt on the next full-scan probe);
// retraction is the rare path, so the rebuild cost stays off the hot loop.
func (r *Relation) retract(i int) {
	row := r.Row(i)
	r.exact.remove(hashRow(row), i)
	r.retractGen++
	//vadalint:ordered each dynamic index drops the row from its own buckets independently
	for _, ix := range r.indexes {
		if i < ix.upTo {
			ix.remove(hashMasked(row, ix.mask), int32(i))
		}
	}
	r.metas[i].Retracted = true
	r.retracted++
	r.liveRows = nil
	r.liveUpTo = 0
}

// liveSnapshot extends the cached live-row list over rows appended since
// the last call and returns it. The returned slice is shared: callers must
// not modify it, and it reflects liveness at call time (rows retracted
// afterwards invalidate the cache, not slices already handed out — the
// exact semantics the per-call allocation it replaces had).
func (r *Relation) liveSnapshot() []int32 {
	if r.liveRows == nil && r.liveUpTo == 0 && len(r.metas) > 0 {
		r.liveRows = make([]int32, 0, len(r.metas)-r.retracted)
	}
	for ; r.liveUpTo < len(r.metas); r.liveUpTo++ {
		if !r.metas[r.liveUpTo].Retracted {
			r.liveRows = append(r.liveRows, int32(r.liveUpTo))
		}
	}
	return r.liveRows
}

// maskedIDsEqual reports whether a and b agree on every masked position.
func maskedIDsEqual(a, b []uint32, mask uint32) bool {
	for i := range a {
		if mask&(1<<uint(i)) != 0 && a[i] != b[i] {
			return false
		}
	}
	return true
}

// resolve encodes args as the relation's interned row — in the relation's
// scratch, without interning — and hashes it, for the read-only probes
// Contains and FindExact. ok is false when args are not of the relation's
// arity or a value was never interned: such a fact is stored nowhere. The
// row is valid until the relation's next Insert, InsertEDB, Replace or
// resolve.
func (r *Relation) resolve(args []term.Value) (row []uint32, h uint64, ok bool) {
	if len(args) != r.arity {
		return nil, 0, false
	}
	row = r.scratch[:0]
	for _, v := range args {
		id, interned := r.in.IDOf(v)
		if !interned {
			return nil, 0, false
		}
		row = append(row, id)
	}
	r.scratch = row
	return row, hashRow(row), true
}

// InsertEDB is the one function that turns a database row — a loaded
// source row, a program or session fact, a tag twin — into a stored row:
// each value is interned once, into the relation's scratch, the row is
// hashed and probed in ID space, and only a survivor gets metadata from
// strat and is appended as the relation's last row. It returns that metadata, nil for a duplicate.
// Interning before the probe assigns the IDs interning after it would: a
// duplicate's values are interned already, a new row's are interned in
// argument order either way. The fault site fires for survivors, before
// strat or the relation learn of the fact, so a re-feed resumes at that row.
func (r *Relation) InsertEDB(args []term.Value, strat core.Policy) *core.FactMeta {
	r.checkWidth(len(args))
	row := r.internRow(args)
	h := hashRow(row)
	if r.ContainsRowHash(row, h) {
		return nil
	}
	siteInsert.Hit()
	m := strat.NewEDBFact(ast.Fact{Pred: r.name, Args: args})
	r.appendRow(m, row, h)
	return m
}

// FindExact returns the row index of the stored fact exactly equal to f.
// Like Contains it never interns.
func (r *Relation) FindExact(f ast.Fact) (int, bool) {
	row, h, ok := r.resolve(f.Args)
	if !ok {
		return 0, false
	}
	ri := r.findRow(row, h)
	return max(ri, 0), ri >= 0
}

// Contains reports whether an exactly equal fact is stored. It never
// interns: a value absent from the symbol table occurs in no stored fact.
func (r *Relation) Contains(f ast.Fact) bool {
	row, h, ok := r.resolve(f.Args)
	return ok && r.ContainsRowHash(row, h)
}

// maskedEqual reports whether the masked positions of stored row ri
// equal the corresponding positions of probe.
func (r *Relation) maskedEqual(ri int, mask uint32, probe []uint32) bool {
	row := r.rows[ri*r.arity : (ri+1)*r.arity]
	for i, id := range row {
		if mask&(1<<uint(i)) != 0 && id != probe[i] {
			return false
		}
	}
	return true
}

// LookupIDs returns the indexes of all facts whose masked positions
// equal the corresponding positions of probe (interned IDs), in ascending
// row order — from an index bucket, the live-row list and a scan alike, and
// after any Replace or retraction — so a caller bounded to a row prefix may
// stop at the first index past it (eval.Binding.RowBound). It builds
// or extends the dynamic index for mask as a side effect (optimistic
// probe, then scan of the unindexed suffix, as in the paper's slot
// machine join). Candidates from the hash bucket are verified by ID
// comparison, so hash collisions never leak into the result.
//
// The returned slice aliases shared storage (an index bucket, or the
// live-row cache for the trivial mask): callers must not modify it, and
// it reflects liveness at call time only.
func (r *Relation) LookupIDs(mask uint32, probe []uint32) []int32 {
	if mask == 0 {
		return r.liveSnapshot()
	}
	ix := r.ensureIndexSized(mask, 0)
	ix.hits++
	return r.filterBucket(ix.rows(hashMasked(probe, mask)), mask, probe)
}

// bulkMinRows is the shortest unindexed suffix extendIndex covers in two
// passes; below it the passes' scratch costs more than a few moved buckets.
const bulkMinRows = 16

// extendIndex covers facts appended since the index's last probe, in
// ascending row order; retracted rows (removed from every index at
// retraction) never enter. A suffix longer than the indexed prefix — a fresh
// EnsureIndex, a Freeze after a load — is covered in two passes, count then
// place: every bucket gets its room in one piece, so a new bucket is never
// moved and an old one at most once.
func (r *Relation) extendIndex(ix *dynIndex) {
	base := ix.upTo
	if n := len(r.metas) - base; n < bulkMinRows || n <= base {
		for ; ix.upTo < len(r.metas); ix.upTo++ {
			if !r.metas[ix.upTo].Retracted {
				ix.push(ix.bucketFor(hashMasked(r.Row(ix.upTo), ix.mask)), int32(ix.upTo))
			}
		}
		return
	}
	ids := make([]int32, len(r.metas)-base) // the bucket of each suffix row
	for k := range ids {
		ids[k] = -1
		if !r.metas[base+k].Retracted {
			ids[k] = int32(ix.bucketFor(hashMasked(r.Row(base+k), ix.mask)))
		}
	}
	need := make([]int32, len(ix.spans))
	for _, b := range ids {
		if b >= 0 {
			need[b]++
		}
	}
	for k, b := range ids {
		if b < 0 {
			continue
		}
		if need[b] > 0 {
			ix.room(int(b), need[b])
			need[b] = 0
		}
		ix.push(int(b), int32(base+k))
	}
	ix.upTo = len(r.metas)
}

// filterBucket verifies a hash bucket's candidates by ID comparison. Fast
// path: the whole bucket matches (collisions are rare), so the bucket is
// returned as-is without allocating.
func (r *Relation) filterBucket(bucket []int32, mask uint32, probe []uint32) []int32 {
	for k, ri := range bucket {
		if r.maskedEqual(int(ri), mask, probe) {
			continue
		}
		filtered := make([]int32, k, len(bucket))
		copy(filtered, bucket[:k])
		for _, rj := range bucket[k+1:] {
			if r.maskedEqual(int(rj), mask, probe) {
				filtered = append(filtered, rj)
			}
		}
		return filtered
	}
	return bucket
}

// Freeze extends every dynamic index and the live-row cache over all
// stored rows (see Database.Freeze).
func (r *Relation) Freeze() {
	r.liveSnapshot()
	//vadalint:ordered extendIndex touches only its argument index; the extensions commute
	for _, ix := range r.indexes {
		r.extendIndex(ix)
	}
}

// EnsureIndex builds (or extends to full coverage) the dynamic index for
// mask without probing it. A no-op for the trivial mask.
func (r *Relation) EnsureIndex(mask uint32) {
	if mask == 0 {
		return
	}
	r.ensureIndexSized(mask, 0)
}

// EnsureIndexSized is EnsureIndex with a bucket-count hint for a fresh
// index — the planner's presized-join hook: when the plan estimates how
// many distinct keys an index will hold, the bucket table is allocated
// once instead of growing through rehashes. The hint is ignored for an
// already existing index.
func (r *Relation) EnsureIndexSized(mask uint32, sizeHint int) {
	if mask == 0 {
		return
	}
	r.ensureIndexSized(mask, sizeHint)
}

// ensureIndexSized builds (presized when sizeHint > 0) or extends the
// dynamic index for mask and returns it.
func (r *Relation) ensureIndexSized(mask uint32, sizeHint int) *dynIndex {
	ix := r.indexes[mask]
	if ix == nil {
		ix = &dynIndex{mask: mask}
		if sizeHint > 0 {
			ix.table.reserve(sizeHint)
			ix.hashes = make([]uint64, 0, sizeHint)
			ix.spans = make([]span, 0, sizeHint)
		}
		r.indexes[mask] = ix
	}
	r.extendIndex(ix)
	return ix
}

// Lookup is the value-based probe: probe must have the relation's arity,
// with only masked positions inspected. A masked value that was never
// interned matches nothing.
func (r *Relation) Lookup(mask uint32, probe []term.Value) []int32 {
	if mask == 0 {
		return r.LookupIDs(0, nil)
	}
	if cap(r.probeBuf) < r.arity {
		r.probeBuf = make([]uint32, r.arity)
	}
	ids := r.probeBuf[:r.arity]
	for i := range ids {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		id, ok := r.in.IDOf(probe[i])
		if !ok {
			return nil
		}
		ids[i] = id
	}
	return r.LookupIDs(mask, ids)
}

// LookupCountIDs returns how many facts match without materializing a
// slice beyond the index bucket.
func (r *Relation) LookupCountIDs(mask uint32, probe []uint32) int {
	return len(r.LookupIDs(mask, probe))
}

// IndexCount returns how many dynamic indexes currently exist.
func (r *Relation) IndexCount() int { return len(r.indexes) }

// Facts returns a snapshot slice of the stored facts (no metadata),
// retracted rows excluded.
func (r *Relation) Facts() []ast.Fact {
	out := make([]ast.Fact, 0, len(r.metas)-r.retracted)
	for _, m := range r.metas {
		if !m.Retracted {
			out = append(out, m.Fact)
		}
	}
	return out
}
