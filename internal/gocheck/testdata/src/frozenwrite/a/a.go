// Package a is the frozenwrite fixture: a miniature Relation/Matcher
// pair reproducing the frozen-epoch worker topology.
package a

// Relation mirrors the storage Relation's mutating and snapshot APIs.
type Relation struct {
	rows   [][]uint32
	frozen bool
}

// Insert is a mutating sink.
func (r *Relation) Insert(row []uint32) bool {
	r.rows = append(r.rows, row)
	return true
}

// Freeze is a mutating sink.
func (r *Relation) Freeze() { r.frozen = true }

// EnsureIndex is a mutating sink.
func (r *Relation) EnsureIndex(cols []int) {}

// SnapshotLookupIDs is the pure frozen-epoch probe (a root marker for
// its callers, not a sink).
func (r *Relation) SnapshotLookupIDs(key []uint32) [][]uint32 { return nil }

// Matcher mirrors the eval Matcher: its whole method set is a root.
type Matcher struct{ Snapshot bool }

// matchBad mutates storage from the match path: flagged.
func (m *Matcher) matchBad(r *Relation) {
	r.Insert(nil) // want "Relation.Insert"
}

// matchVia reaches a sink through a helper: the helper's call site is
// flagged with the chain.
func (m *Matcher) matchVia(r *Relation) {
	deepHelper(r)
}

func deepHelper(r *Relation) {
	r.Freeze() // want "Relation.Freeze"
}

// matchClean only probes the snapshot: clean.
func (m *Matcher) matchClean(r *Relation) [][]uint32 {
	return r.SnapshotLookupIDs(nil)
}

// guardedDispatch mirrors the engine's dual-mode lookup: the mutating
// branch is runtime-guarded by !m.Snapshot, so the suppression carries
// the reason.
func (m *Matcher) guardedDispatch(r *Relation) {
	if !m.Snapshot {
		//vadalint:frozenwrite fixture: non-snapshot branch runs serially
		r.EnsureIndex(nil)
	}
}

// workerLaunch constructs a Snapshot matcher, making it a root; the
// sink it reaches downstream is flagged.
func workerLaunch(r *Relation) {
	m := Matcher{Snapshot: true}
	_ = m
	launchHelper(r)
}

func launchHelper(r *Relation) {
	r.Insert(nil) // want "Relation.Insert"
}

// serialAdmission is never reached from any root: mutating freely is
// clean.
func serialAdmission(r *Relation) {
	r.Insert(nil)
	r.Freeze()
}

// probeCaller calls the snapshot probe directly, becoming a root; its
// own mutation is flagged.
func probeCaller(r *Relation) {
	_ = r.SnapshotLookupIDs(nil)
	r.Freeze() // want "Relation.Freeze"
}

// InsertPrepared is a mutating sink (serial admission only).
func (r *Relation) InsertPrepared(row []uint32) bool {
	r.rows = append(r.rows, row)
	return true
}

// ContainsRowHash is the pure concurrent-read probe of partitioned
// admission (not a sink).
func (r *Relation) ContainsRowHash(row []uint32, h uint64) bool { return false }

// prepass mirrors the storage prepass: runShard is the body of a
// shard-local dedup goroutine and roots the frozen region.
type prepass struct{ rels []*Relation }

// runShard probing is clean; mutating — directly or via a helper — is
// flagged.
func (p *prepass) runShard(s int) {
	for _, r := range p.rels {
		_ = r.ContainsRowHash(nil, 0)
	}
	shardHelper(p.rels[s])
}

func shardHelper(r *Relation) {
	r.InsertPrepared(nil) // want "Relation.InsertPrepared"
}

// flatTable mirrors the storage hash table under a relation: seek is the
// pure probe, insert a mutating sink.
type flatTable struct{ slots []uint64 }

func (t *flatTable) seek(tag uint64, p int) (ref, next int) { return -1, 0 }

func (t *flatTable) insert(h uint64, ref int) { t.slots = append(t.slots, h) }

// matchTable probes the table from the match path — clean — and inserts
// into it — flagged.
func (m *Matcher) matchTable(t *flatTable) {
	_, _ = t.seek(0, 0)
	t.insert(0, 0) // want "flatTable.insert"
}

// Interner mirrors the storage symbol table: IDOf and ValueOf are the pure
// reads, Intern the mutating sink.
type Interner struct{ vals []string }

func (in *Interner) IDOf(v string) (uint32, bool) { return 0, false }

func (in *Interner) ValueOf(id uint32) string { return "" }

func (in *Interner) Intern(v string) uint32 {
	in.vals = append(in.vals, v)
	return uint32(len(in.vals))
}

// matchValue decodes and looks up from the match path — clean — and
// interns — flagged.
func (m *Matcher) matchValue(in *Interner) {
	_ = in.ValueOf(1)
	_, _ = in.IDOf("a")
	_ = in.Intern("a") // want "Interner.Intern"
}
