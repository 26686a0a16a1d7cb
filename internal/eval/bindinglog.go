package eval

import (
	"sort"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/term"
)

// BindingLog is a packed log of complete rule bindings, the hand-off
// between the parallel chase's match phase and its serial admit phase: a
// worker goroutine enumerating matches against a frozen storage epoch
// captures each complete binding (slot values plus matched parents) into
// its task's log, and the engine later restores them — in task order, on
// one goroutine — to run the side-effecting emit path (aggregation, EGD
// unification, existential instantiation, admission). Captured values are
// decoded to term.Values, so a restored binding never needs the worker's
// interner state.
//
// Entries are packed into flat arrays (slot stride NSlots, parent stride
// len(Pos)) so capturing a match costs amortized appends, not per-match
// allocations. A BindingLog belongs to one task at a time; Reset rebinds
// it to a rule shape and clears it.
type BindingLog struct {
	n      int
	nslots int
	npos   int

	vals    []term.Value
	bound   []bool
	parents []*core.FactMeta
	rows    []int32 // matched storage rows per entry (stride npos)

	// Prepared-head extension (partitioned admission): when headsN > 0 the
	// log also carries, per entry, the heads' interned rows and
	// duplicate-table hashes, computed on the match worker against the
	// frozen epoch; the facts themselves are materialized by the merge, and
	// only for rows that survive the duplicate check. headPrep marks entries
	// whose every head fully resolved through the interner; entries where
	// it is false (an unbound head slot, a computed value the interner has
	// never seen) take the classic Restore+emit path, which reproduces the
	// exact serial behavior including its errors.
	headsN   int   // heads per entry (0 = preparation off)
	headOff  []int // per-head row offsets within an entry (len headsN+1)
	headRows []uint32
	headHash []uint64
	headPrep []bool

	// Err is the error that aborted the producing enumeration, if any; the
	// engine surfaces it after replaying the captured prefix, which is
	// exactly the order the serial engine would have observed.
	Err error
}

// Reset clears the log and shapes it for capturing matches of cr. The
// previous batch's entries are zeroed before truncation so captured
// values and parent metadata do not stay reachable through the buffers'
// capacity for the engine's lifetime (the cost is proportional to the
// work the previous batch actually did).
func (lg *BindingLog) Reset(cr *CompiledRule) {
	clear(lg.vals)
	clear(lg.parents)
	lg.n = 0
	lg.nslots = cr.NSlots
	lg.npos = len(cr.Pos)
	lg.vals = lg.vals[:0]
	lg.bound = lg.bound[:0]
	lg.parents = lg.parents[:0]
	lg.rows = lg.rows[:0]
	lg.headsN = 0
	lg.headRows = lg.headRows[:0]
	lg.headHash = lg.headHash[:0]
	lg.headPrep = lg.headPrep[:0]
	lg.Err = nil
}

// PrepareHeads switches the log into prepared-head capture for cr: every
// subsequent Capture must be followed by a CaptureHeads. Call after Reset,
// only for rules on the prepared admission path (parallel-safe, no
// aggregate, no EGD, no existentials, at least one head).
func (lg *BindingLog) PrepareHeads(cr *CompiledRule) {
	lg.headsN = len(cr.Heads)
	lg.headOff = lg.headOff[:0]
	off := 0
	for hi := range cr.Heads {
		lg.headOff = append(lg.headOff, off)
		off += len(cr.Heads[hi].IsVar)
	}
	lg.headOff = append(lg.headOff, off)
}

// Len returns the number of captured bindings.
func (lg *BindingLog) Len() int { return lg.n }

// Capture appends the bound slots and matched parents of b. It must be
// called from the binding's own enumeration (one goroutine per log).
func (lg *BindingLog) Capture(b *Binding) {
	for s := 0; s < lg.nslots; s++ {
		if b.Bound[s] {
			lg.vals = append(lg.vals, b.Val(s))
			lg.bound = append(lg.bound, true)
		} else {
			lg.vals = append(lg.vals, term.Value{})
			lg.bound = append(lg.bound, false)
		}
	}
	lg.parents = append(lg.parents, b.Parents[:lg.npos]...)
	lg.rows = append(lg.rows, b.ParentRows[:lg.npos]...)
	lg.n++
}

// Restore rebuilds the i-th captured binding into b (decoding through in
// where needed). b must have been allocated for the same rule the log was
// Reset with — or, for CSE body sharing, for a member rule whose body
// slots coincide with the log's rule: slots past the log's stride are
// cleared, so a wider member binding never sees a previous entry's
// leftovers.
func (lg *BindingLog) Restore(i int, in *storage.Interner, b *Binding) {
	b.in = in
	off := i * lg.nslots
	for s := 0; s < lg.nslots; s++ {
		if lg.bound[off+s] {
			b.Set(s, lg.vals[off+s])
		} else {
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

// CaptureHeads resolves the head rows of the binding just Captured and
// hashes them — the worker-side half of partitioned admission, over the same
// head-row builder the serial emit path uses. It must be called exactly once
// after each Capture, on the capturing goroutine, against a frozen interner
// (AppendHeadRow only reads it). subst is the EGD null substitution to
// resolve head values through; engines that cannot guarantee a stable
// substitution between capture and merge must not prepare such rules at
// all (the chase disables preparation program-wide when any EGD exists).
//
// Preparation never fails: an entry whose heads cannot fully resolve
// (unbound head slot, value absent from the interner) is marked unprepared
// and padded, and the merge falls back to the classic Restore+emit path for
// it.
func (lg *BindingLog) CaptureHeads(cr *CompiledRule, b *Binding, subst *NullSubst) {
	baseR, baseH := len(lg.headRows), len(lg.headHash)
	ok := true
	for hi := 0; hi < lg.headsN && ok; hi++ {
		rowStart := len(lg.headRows)
		var miss []term.Value
		var err error
		lg.headRows, miss, err = b.AppendHeadRow(lg.headRows, cr, hi, subst)
		ok = err == nil && miss == nil
		lg.headHash = append(lg.headHash, storage.HashRow(lg.headRows[rowStart:]))
	}
	if !ok {
		// Pad the entry so strides stay aligned; the merge replays it
		// through Restore+emit.
		lg.headRows = append(lg.headRows[:baseR], make([]uint32, lg.headOff[lg.headsN])...)
		lg.headHash = append(lg.headHash[:baseH], make([]uint64, lg.headsN)...)
	}
	lg.headPrep = append(lg.headPrep, ok)
}

// EntryPrepared reports whether entry i's heads were fully resolved by
// CaptureHeads.
func (lg *BindingLog) EntryPrepared(i int) bool {
	return lg.headsN > 0 && lg.headPrep[i]
}

// PreparedHead returns the interned row and duplicate-table hash of entry
// i's hi-th head. Valid only when EntryPrepared(i). The row aliases log
// storage: valid until the next Reset, never mutated by the caller.
func (lg *BindingLog) PreparedHead(i, hi int) ([]uint32, uint64) {
	stride := lg.headOff[lg.headsN]
	rows := lg.headRows[i*stride:]
	return rows[lg.headOff[hi]:lg.headOff[hi+1]:lg.headOff[hi+1]], lg.headHash[i*lg.headsN+hi]
}

// ParentsAppend appends entry i's matched parents in ward-first order —
// what core.Policy.Derive expects — straight from the log, without
// restoring a Binding. Mirrors WardFirstParentsAppend.
func (lg *BindingLog) ParentsAppend(cr *CompiledRule, i int, out []*core.FactMeta) []*core.FactMeta {
	parents := lg.parents[i*lg.npos : (i+1)*lg.npos]
	if cr.WardPos >= 0 && cr.WardPos < len(parents) {
		out = append(out, parents[cr.WardPos])
		for k, p := range parents {
			if k != cr.WardPos && p != nil {
				out = append(out, p)
			}
		}
		return out
	}
	for _, p := range parents {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
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
