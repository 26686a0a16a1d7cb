package storage

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/term"
)

// siteFreeze guards the epoch boundary. Freeze has no error path, so the
// site is panic-only, and it fires before any relation is touched — an
// injected crash leaves every snapshot at the previous epoch, which is
// exactly the state a resumed run re-freezes from.
var siteFreeze = fault.NewPanicSite("storage.freeze")

// Database is the in-memory instance the engines operate on: one relation
// per predicate, a null factory, the database-wide term interner shared
// by all relations, and the active constant domain (ACDom) collected
// from EDB facts (paper Sec. 2, Modeling Features).
type Database struct {
	rels  map[string]*Relation
	names []string

	// Nulls mints labelled nulls; Skolem functions are memoized here so
	// that repeated rule firings are deterministic.
	Nulls *term.NullFactory

	in        *Interner
	activeDom map[uint32]struct{} // interned IDs of ACDom constants
	noIndex   bool
	shards    int    // duplicate-table shards per relation (0 = 1)
	gen       uint64 // Freeze epochs opened so far (plan-cache keying)
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		rels:      make(map[string]*Relation),
		Nulls:     term.NewNullFactory(),
		in:        NewInterner(),
		activeDom: make(map[uint32]struct{}),
	}
}

// Interner returns the database-wide symbol table.
func (db *Database) Interner() *Interner { return db.in }

// DisableIndexes makes every relation (present and future) scan instead
// of using dynamic indexes — the slot-machine-join ablation.
func (db *Database) DisableIndexes() {
	db.noIndex = true
	for _, name := range db.names {
		db.rels[name].SetNoIndex(true)
	}
}

// SetShards sets how many duplicate-table shards every relation (present
// and future) keeps — the partition count of the parallel admission
// pre-pass. Rounded up to a power of two. Engines call it once at
// construction; like all mutation it is single-goroutine.
func (db *Database) SetShards(n int) {
	db.shards = ceilPow2(n)
	for _, name := range db.names {
		db.rels[name].SetShards(db.shards)
	}
}

// Shards returns the per-relation duplicate-table shard count.
func (db *Database) Shards() int {
	if db.shards < 1 {
		return 1
	}
	return db.shards
}

// Rel returns the relation for pred, creating it with the given arity on
// first use.
func (db *Database) Rel(pred string, arity int) *Relation {
	r := db.rels[pred]
	if r == nil {
		r = NewRelationInterned(pred, arity, db.in)
		r.SetNoIndex(db.noIndex)
		if db.shards > 1 {
			r.SetShards(db.shards)
		}
		db.rels[pred] = r
		db.names = append(db.names, pred)
		sort.Strings(db.names)
	}
	return r
}

// Lookup returns the relation for pred or nil.
func (db *Database) Lookup(pred string) *Relation { return db.rels[pred] }

// Predicates returns the sorted predicate names present.
func (db *Database) Predicates() []string {
	return append([]string(nil), db.names...)
}

// Freeze opens a read-only evaluation epoch over every relation: dynamic
// indexes and live-row caches are eagerly extended to cover all stored
// rows, after which SnapshotLookupIDs probes (and the interner's read
// paths) are safe from any number of goroutines until the next mutation.
// The parallel chase freezes the database before fanning a delta batch
// out to its match workers and mutates it only on the serial admit path.
func (db *Database) Freeze() {
	siteFreeze.Hit()
	db.gen++
	for _, name := range db.names {
		db.rels[name].Freeze()
	}
}

// StatsGen counts the Freeze epochs opened so far. Plan caches key on it
// to detect that a new consistent statistics snapshot exists.
func (db *Database) StatsGen() uint64 { return db.gen }

// RelStats returns planner statistics for pred. Frozen selects the
// snapshot captured by the last Freeze (what parallel-chase workers must
// plan against); otherwise the statistics are computed live (the
// single-threaded pipeline's view). The boolean is false when the
// predicate has no relation yet.
func (db *Database) RelStats(pred string, frozen bool) (RelStats, bool) {
	r := db.rels[pred]
	if r == nil {
		return RelStats{}, false
	}
	if frozen {
		return r.FrozenStats(), true
	}
	return r.Stats(), true
}

// Insert stores m in its predicate's relation; it reports whether the fact
// was new.
func (db *Database) Insert(m *core.FactMeta) bool {
	return db.Rel(m.Fact.Pred, len(m.Fact.Args)).Insert(m)
}

// InsertEDB stores a database fact, registers its constants in the active
// domain and wires its termination-strategy metadata through strat.
// It reports whether the fact was new.
func (db *Database) InsertEDB(f ast.Fact, strat core.Policy) bool {
	if db.Rel(f.Pred, len(f.Args)).InsertEDB(f, strat) == nil {
		return false
	}
	for _, v := range f.Args {
		if v.IsGround() {
			db.activeDom[db.in.Intern(v)] = struct{}{}
		}
	}
	return true
}

// InActiveDomain reports whether v is a constant of the active domain.
func (db *Database) InActiveDomain(v term.Value) bool {
	if !v.IsGround() {
		return false
	}
	id, ok := db.in.IDOf(v)
	if !ok {
		return false
	}
	_, in := db.activeDom[id]
	return in
}

// InActiveDomainID reports whether the interned ID denotes an ACDom
// constant.
func (db *Database) InActiveDomainID(id uint32) bool {
	_, in := db.activeDom[id]
	return in
}

// ActiveDomainSize returns |ACDom|.
func (db *Database) ActiveDomainSize() int { return len(db.activeDom) }

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
// plus the shared symbol table.
func (db *Database) Bytes() int64 {
	b := db.in.Bytes()
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
