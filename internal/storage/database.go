package storage

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/term"
)

// Database is the in-memory instance the engines operate on: one relation
// per predicate, a null factory, the Skolem memo, the database-wide term
// interner shared by all relations, and the active constant domain (ACDom)
// collected from EDB facts (paper Sec. 2, Modeling Features).
type Database struct {
	rels  map[string]*Relation
	names []string

	// Nulls numbers the labelled nulls of the database: fresh ones, the
	// nulls Skolem mints (memoized in skolems, keyed by interned argument
	// IDs, so repeated rule firings are deterministic) and imported ones.
	Nulls *term.NullFactory

	in      *Interner
	skolems *skolemMemo // nil until the first ResolveSkolem
	// activeDom is ACDom as a bitset over the dense ID space (bit id: the
	// value interned as id is an EDB constant); activeLen counts its bits.
	activeDom []uint64
	activeLen int
	// seen is the scratch bitset over the ID space that RelStats counts
	// distinct IDs through, all zero between calls.
	seen   []uint64
	shards int // pre-pass partitions recorded on every relation (0 = 1)
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		rels:  make(map[string]*Relation),
		Nulls: term.NewNullFactory(),
		in:    NewInterner(),
	}
}

// Interner returns the database-wide symbol table.
func (db *Database) Interner() *Interner { return db.in }

// SetShards records on every relation (present and future) the partition
// count of the pre-pass kernel (shard.go, with which it leaves). Rounded
// up to a power of two; like all mutation it is single-goroutine.
func (db *Database) SetShards(n int) {
	db.shards = ceilPow2(n)
	for _, name := range db.names {
		db.rels[name].SetShards(db.shards)
	}
}

// Rel returns the relation for pred, creating it with the given arity on
// first use.
func (db *Database) Rel(pred string, arity int) *Relation {
	r := db.rels[pred]
	if r == nil {
		r = NewRelationInterned(pred, arity, db.in)
		if db.shards > 1 {
			r.SetShards(db.shards)
		}
		db.rels[pred] = r
		at := sort.SearchStrings(db.names, pred)
		db.names = append(db.names, "")
		copy(db.names[at+1:], db.names[at:])
		db.names[at] = pred
	}
	return r
}

// Lookup returns the relation for pred or nil.
func (db *Database) Lookup(pred string) *Relation { return db.rels[pred] }

// Predicates returns the sorted predicate names present.
func (db *Database) Predicates() []string {
	return append([]string(nil), db.names...)
}

// Freeze extends every relation's dynamic indexes and live-row cache over
// all stored rows. No engine calls it: lookups extend what they probe on
// their own. It stays because the benchmark harness times it as the
// storage.freeze_s kernel, and leaves with that kernel.
func (db *Database) Freeze() {
	for _, name := range db.names {
		db.rels[name].Freeze()
	}
}

// RelStats returns the planner statistics of pred's relation, recounted
// only when the relation changed since they were last read (stats.go);
// false when the predicate has no relation yet.
func (db *Database) RelStats(pred string) (RelStats, bool) {
	r := db.rels[pred]
	if r == nil {
		return RelStats{}, false
	}
	return r.stats(&db.seen), true
}

// Insert stores m in its predicate's relation; it reports whether the fact
// was new.
func (db *Database) Insert(m *core.FactMeta) bool {
	return db.Rel(m.Fact.Pred, len(m.Fact.Args)).Insert(m)
}

// InsertEDB stores the database fact pred(args) through Relation.InsertEDB
// and registers its constants in the active domain, straight from the IDs of
// the row just stored. It returns the stored metadata, nil for a duplicate.
func (db *Database) InsertEDB(pred string, args []term.Value, strat core.Policy) *core.FactMeta {
	r := db.Rel(pred, len(args))
	m := r.InsertEDB(args, strat)
	if m == nil {
		return nil
	}
	row := r.Row(r.Len() - 1)
	for i, v := range args {
		if v.IsGround() {
			db.addActive(row[i])
		}
	}
	return m
}

// addActive sets id's bit, growing the bitset to cover it (IDs are dense:
// a word at a time, amortized by append).
func (db *Database) addActive(id uint32) {
	word, bit := int(id>>6), uint64(1)<<(id&63)
	for word >= len(db.activeDom) {
		db.activeDom = append(db.activeDom, 0)
	}
	if db.activeDom[word]&bit == 0 {
		db.activeDom[word] |= bit
		db.activeLen++
	}
}

// InActiveDomain reports whether v is a constant of the active domain.
func (db *Database) InActiveDomain(v term.Value) bool {
	if !v.IsGround() {
		return false
	}
	id, ok := db.in.IDOf(v)
	return ok && db.InActiveDomainID(id)
}

// InActiveDomainID reports whether the interned ID denotes an ACDom
// constant. A pure read.
func (db *Database) InActiveDomainID(id uint32) bool {
	word := int(id >> 6)
	return word < len(db.activeDom) && db.activeDom[word]&(1<<(id&63)) != 0
}

// ActiveDomainSize returns |ACDom|.
func (db *Database) ActiveDomainSize() int { return db.activeLen }

// TotalFacts counts all stored rows, retracted rows included.
func (db *Database) TotalFacts() int {
	n := 0
	for _, name := range db.names {
		n += db.rels[name].Len()
	}
	return n
}

// LiveFacts counts the facts actually in the database (retracted
// monotonic-aggregation intermediates excluded).
func (db *Database) LiveFacts() int {
	n := 0
	for _, name := range db.names {
		n += db.rels[name].Live()
	}
	return n
}

// Bytes returns the rough retained size of all relations and indexes,
// plus the shared symbol table and the Skolem memo.
func (db *Database) Bytes() int64 {
	b := db.in.Bytes()
	if db.skolems != nil {
		b += db.skolems.bytes()
	}
	for _, name := range db.names {
		b += db.rels[name].Bytes()
	}
	return b
}

// FactsOf returns a snapshot of the facts of pred (nil when absent).
func (db *Database) FactsOf(pred string) []ast.Fact {
	r := db.rels[pred]
	if r == nil {
		return nil
	}
	return r.Facts()
}
