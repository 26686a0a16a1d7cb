package storage

import (
	"unsafe"

	"repro/internal/term"
)

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
// Layout: one flatTable (table.go) maps term.Value.Hash to the ID, for
// every kind alike, and each candidate of a tag's run is verified by
// term.Identical against the stored value — the identity the termination
// strategy compares by too, which Hash is consistent with: kinds never mix
// (Int(1), Float(1.0), Bool(true), Date(1), Null(1), String("1") are six
// IDs; a set that renders like a string is not that string), every NaN
// shares one ID (NaN never equals itself, so only term.IdentityBits'
// canonical NaN keeps NaN facts duplicates of each other — and with it chase
// termination), and -0.0 shares 0.0's. The values themselves live in
// fixed-size pages of pageSize, ID id at pages[id>>pageBits][id&pageMask]:
// a new page is one allocation, and growth never copies or clears the
// values already stored — only the short page list moves. Besides the pages
// and the string payloads they point at, nothing here holds a pointer.
//
// Concurrency: single-writer. IDOf and ValueOf are pure reads, safe from
// multiple goroutines only while no Intern call is in flight.
type Interner struct {
	table flatTable
	pages []*[pageSize]term.Value
	n     uint32 // IDs handed out, the reserved 0 included
	text  int64  // bytes of string and set payload interned
}

const (
	pageBits = 8
	pageSize = 1 << pageBits // values per page, the first included: 10 KiB
	pageMask = pageSize - 1

	valueBytes = int64(unsafe.Sizeof(term.Value{}))
)

// hashValue is term.Value.Hash. It is a variable only so collision tests can
// force every value onto one tag.
var hashValue = term.Value.Hash

// NewInterner returns an empty interner; ID 0 decodes to the invalid Value.
func NewInterner() *Interner {
	return &Interner{n: 1}
}

// Intern returns the ID of v, assigning the next dense ID on first use. It
// probes the table once; a miss stores v under the hash already in hand.
func (in *Interner) Intern(v term.Value) uint32 {
	h := hashValue(v)
	if id, ok := in.find(v, h); ok {
		return id
	}
	id := in.n
	if int(id>>pageBits) == len(in.pages) {
		in.pages = append(in.pages, new([pageSize]term.Value))
	}
	in.pages[id>>pageBits][id&pageMask] = v
	in.n++
	in.table.insert(h, int(id))
	in.text += int64(len(v.Str()))
	return id
}

// IDOf returns the ID of v without interning it; ok is false when v has
// never been interned (hence occurs in no stored fact). A pure read.
func (in *Interner) IDOf(v term.Value) (id uint32, ok bool) {
	return in.find(v, hashValue(v))
}

// find walks the run of slots carrying h's tag and returns the first ID
// whose value is identical to v. A pure read.
func (in *Interner) find(v term.Value, h uint64) (uint32, bool) {
	tag := tagOf(h)
	for ref, p := in.table.seek(tag, in.table.home(tag)); ref >= 0; ref, p = in.table.seek(tag, p) {
		if term.Identical(in.pages[ref>>pageBits][ref&pageMask], v) {
			return uint32(ref), true
		}
	}
	return 0, false
}

// ValueOf decodes an ID back to its Value. ID 0 (and any out-of-range
// ID) decodes to the invalid zero Value. A pure read.
func (in *Interner) ValueOf(id uint32) term.Value {
	if id == 0 || id >= in.n {
		return term.Value{}
	}
	return in.pages[id>>pageBits][id&pageMask]
}

// Len returns the number of interned values (excluding the reserved
// invalid slot).
func (in *Interner) Len() int { return int(in.n) - 1 }

// Bytes returns the memory the symbol table holds, from its capacities:
// table slots, the page list, the pages, and the string and set payload
// bytes of the interned values.
func (in *Interner) Bytes() int64 {
	return int64(8*cap(in.table.slots)+8*cap(in.pages)) + valueBytes*pageSize*int64(len(in.pages)) + in.text
}
