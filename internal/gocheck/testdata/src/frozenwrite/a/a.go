// Package a is the frozenwrite fixture: a miniature Relation and storage
// pre-pass reproducing the concurrent shard-goroutine topology.
package a

// Relation mirrors the storage Relation's mutating and read-only APIs.
type Relation struct {
	rows [][]uint32
	t    flatTable
}

// Freeze is a mutating sink.
func (r *Relation) Freeze() {}

// EnsureIndex is a mutating sink.
func (r *Relation) EnsureIndex(cols []int) {}

// InsertPrepared is a mutating sink (serial admission only).
func (r *Relation) InsertPrepared(row []uint32) bool {
	r.rows = append(r.rows, row)
	return true
}

// ContainsRowHash is the pure concurrent-read probe of the pre-pass (not
// a sink).
func (r *Relation) ContainsRowHash(row []uint32, h uint64) bool { return false }

// prepass mirrors the storage prepass: runShard is the body of a
// shard-local dedup goroutine and roots the checked region.
type prepass struct {
	rels []*Relation
	in   *Interner
	safe bool
}

// runShard probing is clean; mutating — directly or via a helper — is
// flagged.
func (p *prepass) runShard(s int) {
	for _, r := range p.rels {
		_ = r.ContainsRowHash(nil, 0)
	}
	shardHelper(p.rels[s])
	p.rels[s].Freeze() // want "Relation.Freeze"
	tableHelper(&p.rels[s].t)
	internHelper(p.in)
	if p.safe {
		//vadalint:frozenwrite fixture: the guarded branch never runs on a shard goroutine
		p.rels[s].EnsureIndex(nil)
	}
}

func shardHelper(r *Relation) {
	r.InsertPrepared(nil) // want "Relation.InsertPrepared"
}

// flatTable mirrors the storage hash table under a relation: seek is the
// pure probe, insert a mutating sink.
type flatTable struct{ slots []uint64 }

func (t *flatTable) seek(tag uint64, p int) (ref, next int) { return -1, 0 }

func (t *flatTable) insert(h uint64, ref int) { t.slots = append(t.slots, h) }

// tableHelper probes the table — clean — and inserts into it — flagged.
func tableHelper(t *flatTable) {
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

// internHelper decodes and looks up — clean — and interns — flagged.
func internHelper(in *Interner) {
	_ = in.ValueOf(1)
	_, _ = in.IDOf("a")
	_ = in.Intern("a") // want "Interner.Intern"
}

// serialAdmission is never reached from the root: mutating freely is
// clean.
func serialAdmission(r *Relation) {
	r.InsertPrepared(nil)
	r.Freeze()
}
