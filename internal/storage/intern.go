package storage

import "repro/internal/term"

// Interner is the database-wide symbol table: it maps each distinct
// term.Value to a dense uint32 ID and back. Relations store facts as
// interned tuples ([]uint32), so duplicate checks and index probes
// compare and hash machine words instead of rendered strings.
//
// ID 0 is reserved as "invalid / absent"; real IDs start at 1. Labelled
// nulls intern like any other value: two nulls receive the same ID iff
// they have the same null identity (term.Value equality), so null
// identity survives interning exactly.
//
// Equality semantics: IDs coincide iff the term.Values are identical —
// strict identity, applied uniformly across dedup, indexes and unification
// (Int(1) and Float(1.0) are distinct; numeric-widening comparison stays
// available in conditions via term.Equal/Compare).
//
// Layout: the table is keyed by payload, so a lookup hashes only the bytes
// that distinguish the value, not the 40-byte term.Value: strings by their
// text (the runtime's fast string map), sets by their canonical rendering
// in a map of their own, every other kind — int, bool, date, null, float —
// by the fixed-size scalarKey. The identity is term.Identical, the one the
// termination strategy compares by too: kinds never mix (Int(1),
// Float(1.0), Bool(true), Date(1), Null(1), String("1") are six IDs; a set
// that renders like a string is not that string), every NaN shares one ID
// (NaN never equals itself, so only term.IdentityBits' canonical NaN keeps
// NaN facts duplicates of each other — and with it chase termination), and
// -0.0 shares 0.0's.
//
// Concurrency: single-writer. IDOf and ValueOf are safe from multiple
// goroutines only while no Intern call is in flight: the parallel chase's
// match workers read during frozen epochs, all interning happens on the
// serial admission path.
type Interner struct {
	strs    map[string]uint32
	sets    map[string]uint32
	scalars map[scalarKey]uint32
	vals    []term.Value
	bytes   int64
}

// scalarKey identifies a non-string, non-set value: its kind plus
// term.IdentityBits.
type scalarKey struct {
	kind term.Kind
	bits uint64
}

// NewInterner returns an empty interner; slot 0 holds the invalid Value.
func NewInterner() *Interner {
	return &Interner{
		strs:    make(map[string]uint32),
		sets:    make(map[string]uint32),
		scalars: make(map[scalarKey]uint32),
		vals:    make([]term.Value, 1),
	}
}

// Intern returns the ID of v, assigning the next dense ID on first use.
func (in *Interner) Intern(v term.Value) uint32 {
	if id, ok := in.IDOf(v); ok {
		return id
	}
	id := uint32(len(in.vals))
	switch {
	case v.Kind() == term.KindString:
		in.strs[v.Str()] = id
	case v.Kind() == term.KindSet:
		in.sets[v.Str()] = id
	default:
		in.scalars[scalarKey{v.Kind(), v.IdentityBits()}] = id
	}
	in.vals = append(in.vals, v)
	// Value struct + string payload + map entry overhead.
	in.bytes += int64(len(v.Str())) + 64
	return id
}

// IDOf returns the ID of v without interning it; ok is false when v has
// never been interned (hence occurs in no stored fact).
func (in *Interner) IDOf(v term.Value) (id uint32, ok bool) {
	switch {
	case v.Kind() == term.KindString:
		id, ok = in.strs[v.Str()]
	case v.Kind() == term.KindSet:
		id, ok = in.sets[v.Str()]
	default:
		id, ok = in.scalars[scalarKey{v.Kind(), v.IdentityBits()}]
	}
	return id, ok
}

// ValueOf decodes an ID back to its Value. ID 0 (and any out-of-range
// ID) decodes to the invalid zero Value.
func (in *Interner) ValueOf(id uint32) term.Value {
	if int(id) >= len(in.vals) {
		return term.Value{}
	}
	return in.vals[id]
}

// Len returns the number of interned values (excluding the reserved
// invalid slot).
func (in *Interner) Len() int { return len(in.vals) - 1 }

// Bytes returns the rough retained size of the symbol table.
func (in *Interner) Bytes() int64 { return in.bytes }
