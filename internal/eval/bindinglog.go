package eval

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/term"
)

// BindingLog is a packed log of complete rule bindings in the store's own
// form — the hand-off between enumerating a rule's matches and running the
// side-effecting emit path over them in canonical order (aggregation, EGD
// unification, existential instantiation, admission). The chase captures
// every task of a delta batch into one log before it admits anything, each
// task owning a contiguous range of entries, and replays the ranges in task
// order; the pipeline buffers one firing the same way; CSE followers
// restore a shared body range into their own binding.
//
// An entry holds what a Binding holds: per slot a state and, for a matched
// slot, its interned ID — valid for every later state of the run's
// interner, which only appends. Only a computed slot (an assignment or
// aggregate result) stores a term.Value, so capturing a rule without one
// decodes nothing and appends no value. Entries are packed into flat arrays,
// each entry recording where its slots and matched rows begin; Shape sets
// the rule shape of the entries captured after it, so one log holds the
// ranges of many rules and a capture costs amortized appends, not per-match
// or per-task allocations. A BindingLog belongs to one goroutine.
type BindingLog struct {
	nslots int // slot stride of the entries captured from now on
	npos   int // matched-atom stride of the entries captured from now on

	state   []uint8      // per slot: slotUnbound, slotID or slotValue
	ids     []uint32     // per slot: the interned ID (slotID) or an index into vals (slotValue)
	vals    []term.Value // computed slots only, in capture order
	parents []*core.FactMeta
	rows    []int32    // matched storage rows (npos per entry)
	ents    []logEntry // per entry: where its slots and rows begin
}

// logEntry locates one captured binding: its first slot in state/ids and
// its first matched atom in parents/rows. The entry's strides run to the
// next entry's offsets (or to the arrays' ends for the last entry).
type logEntry struct{ slot, pos int32 }

// Slot states of a captured binding.
const (
	slotUnbound uint8 = iota
	slotID
	slotValue
)

// Reset clears the log, keeping its buffers. The previous captures' values
// and parent metadata are zeroed before truncation so they do not stay
// reachable through the buffers' capacity for the engine's lifetime (the
// cost is proportional to the work the previous captures actually did).
func (lg *BindingLog) Reset() {
	clear(lg.vals)
	clear(lg.parents)
	lg.state = lg.state[:0]
	lg.ids = lg.ids[:0]
	lg.vals = lg.vals[:0]
	lg.parents = lg.parents[:0]
	lg.rows = lg.rows[:0]
	lg.ents = lg.ents[:0]
}

// Shape makes the entries captured from now on matches of cr, keeping the
// entries already captured: cr's range starts at Len.
func (lg *BindingLog) Shape(cr *CompiledRule) {
	lg.nslots = cr.NSlots
	lg.npos = len(cr.Pos)
}

// Len returns the number of captured bindings.
func (lg *BindingLog) Len() int { return len(lg.ents) }

// Capture appends the slots and matched parents of b as they stand, in the
// shape last set by Shape. It must be called from the binding's own
// enumeration.
func (lg *BindingLog) Capture(b *Binding) {
	off := len(lg.ids)
	lg.ents = append(lg.ents, logEntry{slot: int32(off), pos: int32(len(lg.rows))})
	lg.ids = append(lg.ids, b.IDs[:lg.nslots]...)
	for s := 0; s < lg.nslots; s++ {
		st := slotID
		switch {
		case !b.Bound[s]:
			st = slotUnbound
		case b.hasVal[s]:
			st = slotValue
			lg.ids[off+s] = uint32(len(lg.vals))
			lg.vals = append(lg.vals, b.vals[s])
		}
		lg.state = append(lg.state, st)
	}
	lg.parents = append(lg.parents, b.Parents[:lg.npos]...)
	lg.rows = append(lg.rows, b.ParentRows[:lg.npos]...)
}

// span returns entry i's slot range [s0, s1) and matched-atom range [p0, p1).
func (lg *BindingLog) span(i int) (s0, s1, p0, p1 int) {
	e := lg.ents[i]
	s1, p1 = len(lg.state), len(lg.rows)
	if i+1 < len(lg.ents) {
		s1, p1 = int(lg.ents[i+1].slot), int(lg.ents[i+1].pos)
	}
	return int(e.slot), s1, int(e.pos), p1
}

// Restore rebuilds the i-th captured binding into b, over the interner in
// the IDs were captured against (or a later state of it). b must have been
// allocated for the rule the entry was captured for — or, for CSE body
// sharing, for a member rule whose body slots coincide with that rule's:
// slots past the entry's stride are cleared, so a wider member binding never
// sees a previous entry's leftovers.
func (lg *BindingLog) Restore(i int, in *storage.Interner, b *Binding) {
	b.in = in
	s0, s1, p0, p1 := lg.span(i)
	for s := 0; s < s1-s0; s++ {
		switch id := lg.ids[s0+s]; lg.state[s0+s] {
		case slotID:
			b.bindID(s, id)
		case slotValue:
			b.Set(s, lg.vals[id])
		default:
			b.Bound[s] = false
			b.hasVal[s] = false
		}
	}
	for s := s1 - s0; s < len(b.Bound); s++ {
		b.Bound[s] = false
		b.hasVal[s] = false
	}
	copy(b.Parents, lg.parents[p0:p1])
	copy(b.ParentRows, lg.rows[p0:p1])
}

// CanonicalOrder appends to perm the indexes of the entries lo..hi-1 — one
// rule's range — in canonical admission order: ascending lexicographic
// comparison of the matched storage rows in body-atom source order. The key
// depends only on which rows matched, never on the join order that
// enumerated them, so every plan choice — static, cost-based, or
// deliberately worst-case — admits the same candidates in the same order,
// which is what keeps reasoning output byte-identical across plans. Entries
// with equal keys are identical bindings, so their relative order is
// immaterial.
func (lg *BindingLog) CanonicalOrder(perm []int32, lo, hi int) []int32 {
	start := len(perm)
	for i := lo; i < hi; i++ {
		perm = append(perm, int32(i))
	}
	if hi-lo < 2 {
		return perm
	}
	_, _, p0, p1 := lg.span(lo)
	np := p1 - p0
	if np < 2 {
		return perm // a single atom enumerated in row order
	}
	rows, ents := lg.rows, lg.ents
	slices.SortFunc(perm[start:], func(a, b int32) int {
		ra, rb := ents[a].pos, ents[b].pos
		for k := int32(0); k < int32(np); k++ {
			if c := cmp.Compare(rows[ra+k], rows[rb+k]); c != 0 {
				return c
			}
		}
		return 0
	})
	return perm
}
