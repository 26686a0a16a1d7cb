package storage

import (
	"math/bits"
	"slices"
)

// flatTable is the one hash structure of a Relation: a pointer-free
// open-addressing table from a 64-bit hash to small integer references —
// row indexes in the duplicate table, bucket ids in a dynamic index. A slot
// packs the hash's 32-bit tag (high word) and the reference plus one (low
// word); the zero slot is empty and slotDead — a low word no reference
// takes, under tag zero — is a deleted one. Tags only narrow the search: every candidate seek returns is verified
// by its caller (rowEqual, or the bucket's full hash), so collisions are
// resolved exactly.
//
// A slot's home position is a multiply-shift of its tag, not the hash's low
// bits: no runtime map re-hashes behind this table, interned IDs are small
// sequential integers and FNV-1a's low bits are regular (distinctSketch.add
// has the measurement). Because the position depends on the tag alone,
// growth re-places slots without touching rows, and the whole table is one
// []uint64 the collector never scans. Probes are pure reads; mutation is
// single-goroutine like all of Relation.
type flatTable struct {
	slots []uint64
	shift uint8 // 64 - log2(len(slots)): home = top bits of the mixed tag
	live  int   // slots holding a reference
	dead  int   // deleted slots: reused by insert, purged by rehash
}

const (
	refMask  = 1<<32 - 1
	slotDead = refMask            // a deleted slot: tag 0, the reserved low word
	tagMul   = 0x9E3779B97F4A7C15 // 2^64 / golden ratio, odd

	// tableMinSlots is the first allocation; tables stay at most 3/4 full
	// (deleted slots included), so a probe always ends at an empty slot.
	tableMinSlots = 8
)

// tagOf folds h to the tag kept in a slot's high word (low word zero).
func tagOf(h uint64) uint64 { return (h ^ h<<32) &^ refMask }

// home returns the position at which tag's probe run starts.
func (t *flatTable) home(tag uint64) int { return int(((tag >> 32) * tagMul) >> t.shift) }

// seek walks tag's run from position p and returns the next live reference
// carrying tag together with the position after it, or -1 once the run ends
// at an empty slot:
//
//	for ref, p := t.seek(tag, t.home(tag)); ref >= 0; ref, p = t.seek(tag, p) { verify ref }
func (t *flatTable) seek(tag uint64, p int) (ref, next int) {
	if len(t.slots) == 0 {
		return -1, 0
	}
	mask := len(t.slots) - 1
	for {
		s := t.slots[p&mask]
		p++
		if s == 0 {
			return -1, p
		}
		if s&^refMask == tag && s != slotDead {
			return int(s&refMask) - 1, p
		}
	}
}

// insert stores ref under h in the first empty or deleted slot of its run.
// It does not look for an equal entry: callers probe first.
func (t *flatTable) insert(h uint64, ref int) {
	if (t.live+t.dead+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	t.place(tagOf(h) | uint64(ref+1))
}

func (t *flatTable) place(s uint64) {
	mask := len(t.slots) - 1
	for p := t.home(s &^ refMask); ; p++ {
		switch t.slots[p&mask] {
		case slotDead:
			t.dead--
		case 0:
		default:
			continue
		}
		t.slots[p&mask] = s
		t.live++
		return
	}
}

// remove deletes the slot holding ref under h, if any.
func (t *flatTable) remove(h uint64, ref int) {
	if len(t.slots) == 0 {
		return
	}
	want, mask := tagOf(h)|uint64(ref+1), len(t.slots)-1
	for p := t.home(want &^ refMask); ; p++ {
		switch t.slots[p&mask] {
		case want:
			t.slots[p&mask] = slotDead
			t.live--
			t.dead++
			return
		case 0:
			return
		}
	}
}

// grow makes room for one more reference: a table mostly holding live
// references doubles, one clogged by deleted slots is rebuilt at its size.
func (t *flatTable) grow() {
	size := len(t.slots)
	switch {
	case size == 0:
		size = tableMinSlots
	case (t.live+1)*8 > size*3:
		size *= 2
	}
	t.rehash(size)
}

// reserve sizes the table to take n references in all without growing.
func (t *flatTable) reserve(n int) {
	size := max(len(t.slots), tableMinSlots)
	for n*4 > size*3 {
		size *= 2
	}
	if size != len(t.slots) {
		t.rehash(size)
	}
}

// rehash re-places the live slots into a fresh table of size slots (a power
// of two) by the tags they carry, dropping deleted ones.
func (t *flatTable) rehash(size int) {
	old := t.slots
	t.slots = make([]uint64, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.live, t.dead = 0, 0
	for _, s := range old {
		if s != 0 && s != slotDead {
			t.place(s)
		}
	}
}

// dynIndex is one dynamic index of a relation: the rows agreeing on the
// masked positions' hash form a bucket. There is one bucket per 64-bit hash
// (table maps the hash to a bucket id, hashes holds each bucket's full hash
// to verify it), and a bucket is a span of one shared arena of row indexes.
// Nothing here holds a pointer into the heap besides the four slices.
type dynIndex struct {
	mask uint32
	upTo int // facts [0, upTo) are indexed

	table  flatTable
	hashes []uint64
	spans  []span
	arena  []int32

	// hits counts probes served by this index since it was built.
	hits int64
}

// span locates a bucket in the arena: arena[off:off+n] are its rows,
// arena[off+n:off+cap] its spare room.
type span struct{ off, n, cap int32 }

// find returns the id of the bucket for hash h, -1 when there is none. A
// pure read.
func (ix *dynIndex) find(h uint64) int {
	tag := tagOf(h)
	for b, p := ix.table.seek(tag, ix.table.home(tag)); b >= 0; b, p = ix.table.seek(tag, p) {
		if ix.hashes[b] == h {
			return b
		}
	}
	return -1
}

// rows returns the bucket for hash h, capped at its length: an append by
// the caller cannot reach the neighbouring bucket. The slice stays a valid
// snapshot while the index changes — push writes past its end, a bucket
// that outgrows its span moves and leaves the old region alone, and a
// reallocated arena leaves the old array to its holders; only remove and
// insertSorted (a retraction or a Replace) shift a bucket's rows in place.
// A pure read.
func (ix *dynIndex) rows(h uint64) []int32 {
	b := ix.find(h)
	if b < 0 {
		return nil
	}
	s := ix.spans[b]
	return ix.arena[s.off : s.off+s.n : s.off+s.n]
}

// bucketFor returns the id of the bucket for hash h, creating it empty.
func (ix *dynIndex) bucketFor(h uint64) int {
	b := ix.find(h)
	if b < 0 {
		b = len(ix.hashes)
		ix.hashes = append(ix.hashes, h)
		ix.spans = append(ix.spans, span{})
		ix.table.insert(h, b)
	}
	return b
}

// room makes bucket b able to take need more rows. A bucket at the arena's
// tail grows where it is; any other moves to the tail, once, with at least
// doubled room, and its old region is left as it was.
func (ix *dynIndex) room(b int, need int32) {
	s := &ix.spans[b]
	if s.n+need <= s.cap {
		return
	}
	grown := max(2*s.cap, s.n+need)
	if int(s.off+s.cap) != len(ix.arena) {
		off := int32(len(ix.arena))
		ix.arena = append(ix.arena, ix.arena[s.off:s.off+s.n]...)
		s.off, s.cap = off, s.n
	}
	add := int(grown - s.cap)
	ix.arena = slices.Grow(ix.arena, add)[:len(ix.arena)+add]
	s.cap = grown
}

// push appends row ri at the tail of bucket b: ri is past every row the
// bucket holds, so the bucket stays ascending.
func (ix *dynIndex) push(b int, ri int32) {
	ix.room(b, 1)
	s := &ix.spans[b]
	ix.arena[s.off+s.n] = ri
	s.n++
}

// insertSorted inserts row ri into bucket b at its ascending position — how a
// replaced row, which keeps its index, enters the bucket of its new value.
func (ix *dynIndex) insertSorted(b int, ri int32) {
	ix.room(b, 1)
	s := &ix.spans[b]
	bucket := ix.arena[s.off : s.off+s.n+1]
	k, _ := slices.BinarySearch(bucket[:s.n], ri)
	copy(bucket[k+1:], bucket[k:s.n])
	bucket[k] = ri
	s.n++
}

// remove deletes row ri from the bucket for hash h, closing the gap in
// place so the remaining rows keep their order.
func (ix *dynIndex) remove(h uint64, ri int32) {
	b := ix.find(h)
	if b < 0 {
		return
	}
	s := &ix.spans[b]
	bucket := ix.arena[s.off : s.off+s.n]
	if k := slices.Index(bucket, ri); k >= 0 {
		copy(bucket[k:], bucket[k+1:])
		s.n--
	}
}

// bytes returns the memory the index holds.
func (ix *dynIndex) bytes() int64 {
	return int64(8*cap(ix.table.slots) + 8*cap(ix.hashes) + 12*cap(ix.spans) + 4*cap(ix.arena))
}
