package eval

import (
	"sort"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/term"
)

// BindingLog is a packed log of complete rule bindings in the store's own
// form — the hand-off between enumerating a rule's matches and running the
// side-effecting emit path over them in canonical order (aggregation, EGD
// unification, existential instantiation, admission). The parallel chase
// fills one log per task on a worker goroutine against a frozen storage
// epoch and replays it serially; the pipeline buffers one firing the same
// way; CSE followers restore a shared body log into their own binding.
//
// An entry holds what a Binding holds: per slot a state and, for a matched
// slot, its interned ID — valid for every later state of the run's
// interner, which only appends. Only a computed slot (an assignment or
// aggregate result) stores a term.Value, so capturing a rule without one
// decodes nothing and appends no value. Entries are packed into flat arrays
// (slot stride NSlots, parent stride len(Pos)): a capture costs amortized
// appends, not per-match allocations. A BindingLog belongs to one task at a
// time; Reset rebinds it to a rule shape and clears it.
type BindingLog struct {
	n      int
	nslots int
	npos   int

	state   []uint8      // per slot: slotUnbound, slotID or slotValue
	ids     []uint32     // per slot: the interned ID (slotID) or an index into vals (slotValue)
	vals    []term.Value // computed slots only, in capture order
	parents []*core.FactMeta
	rows    []int32 // matched storage rows per entry (stride npos)

	// Err is the error that aborted the producing enumeration, if any; the
	// engine surfaces it after replaying the captured prefix, which is
	// exactly the order the serial engine would have observed.
	Err error
}

// Slot states of a captured binding.
const (
	slotUnbound uint8 = iota
	slotID
	slotValue
)

// Reset clears the log and shapes it for capturing matches of cr. The
// previous batch's values and parent metadata are zeroed before truncation
// so they do not stay reachable through the buffers' capacity for the
// engine's lifetime (the cost is proportional to the work the previous
// batch actually did).
func (lg *BindingLog) Reset(cr *CompiledRule) {
	clear(lg.vals)
	clear(lg.parents)
	lg.n = 0
	lg.nslots = cr.NSlots
	lg.npos = len(cr.Pos)
	lg.state = lg.state[:0]
	lg.ids = lg.ids[:0]
	lg.vals = lg.vals[:0]
	lg.parents = lg.parents[:0]
	lg.rows = lg.rows[:0]
	lg.Err = nil
}

// Len returns the number of captured bindings.
func (lg *BindingLog) Len() int { return lg.n }

// Capture appends the slots and matched parents of b as they stand. It must
// be called from the binding's own enumeration (one goroutine per log).
func (lg *BindingLog) Capture(b *Binding) {
	off := len(lg.ids)
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
	lg.n++
}

// Restore rebuilds the i-th captured binding into b, over the interner in
// the IDs were captured against (or a later state of it). b must have been
// allocated for the same rule the log was Reset with — or, for CSE body
// sharing, for a member rule whose body slots coincide with the log's rule:
// slots past the log's stride are cleared, so a wider member binding never
// sees a previous entry's leftovers.
func (lg *BindingLog) Restore(i int, in *storage.Interner, b *Binding) {
	b.in = in
	off := i * lg.nslots
	for s := 0; s < lg.nslots; s++ {
		switch id := lg.ids[off+s]; lg.state[off+s] {
		case slotID:
			b.bindID(s, id)
		case slotValue:
			b.Set(s, lg.vals[id])
		default:
			b.Bound[s] = false
			b.hasVal[s] = false
		}
	}
	for s := lg.nslots; s < len(b.Bound); s++ {
		b.Bound[s] = false
		b.hasVal[s] = false
	}
	copy(b.Parents, lg.parents[i*lg.npos:(i+1)*lg.npos])
	copy(b.ParentRows, lg.rows[i*lg.npos:(i+1)*lg.npos])
}

// CanonicalOrder appends to perm[:0] the entry indexes in canonical
// admission order: ascending lexicographic comparison of the matched
// storage rows in body-atom source order. The key depends only on which
// rows matched, never on the join order that enumerated them, so every
// plan choice — static, cost-based, or deliberately worst-case — admits
// the same candidates in the same order, which is what keeps reasoning
// output byte-identical across plans. Entries with equal keys are
// identical bindings, so their relative order is immaterial.
func (lg *BindingLog) CanonicalOrder(perm []int32) []int32 {
	perm = perm[:0]
	for i := 0; i < lg.n; i++ {
		perm = append(perm, int32(i))
	}
	if lg.n < 2 || lg.npos < 2 {
		return perm // ≤1 entry, or a single atom enumerated in row order
	}
	rows, np := lg.rows, lg.npos
	sort.Slice(perm, func(a, b int) bool {
		ra := rows[int(perm[a])*np : int(perm[a])*np+np]
		rb := rows[int(perm[b])*np : int(perm[b])*np+np]
		for k := 0; k < np; k++ {
			if ra[k] != rb[k] {
				return ra[k] < rb[k]
			}
		}
		return false
	})
	return perm
}
