package storage

// This file holds the per-relation statistics that feed the cost-based
// join planner (paper Sec. 6, Optimizations): the live-row count and, per
// column, the exact number of distinct interned IDs over the live rows. A
// relation counts them when a plan derivation asks and keeps them until it
// next changes — an append, a Replace or a retraction — so a relation read
// by many plan derivations is scanned once per change, not once per plan.

// RelStats is one relation's planner-facing statistics.
type RelStats struct {
	// Live is the number of non-retracted facts.
	Live int
	// Distinct[c] is the number of distinct interned IDs in column c over
	// the live rows (len = arity). It is the relation's memo, read in
	// place: valid until the relation next changes.
	Distinct []int
}

// version numbers the relation's contents: every change lengthens the
// delta stream (an append, a Replace) or retracts a row, so no two
// contents share a version.
func (r *Relation) version() int { return r.DeltaLen() + r.retracted }

// stats returns the relation's statistics, recounting the distinct IDs only
// when the relation changed since the last count. seen is a bitset over the
// ID space, all zero on entry and on return (Database.RelStats passes the
// database's).
func (r *Relation) stats(seen *[]uint64) RelStats {
	if v := r.version(); r.distinct == nil || r.countedAt != v {
		r.countDistinct(seen)
		r.countedAt = v
	}
	return RelStats{Live: r.Live(), Distinct: r.distinct}
}

// countDistinct counts each column's distinct IDs over the live rows into
// r.distinct: one pass sets a bit per ID and counts the new ones, a second
// clears the bits again, so the cost is the column's length and not the
// size of the ID space.
func (r *Relation) countDistinct(seen *[]uint64) {
	if r.distinct == nil {
		r.distinct = make([]int, r.arity)
	}
	if words := r.in.Len()>>6 + 1; len(*seen) < words {
		*seen = append(*seen, make([]uint64, words-len(*seen))...)
	}
	bits := *seen
	for c := range r.distinct {
		n := 0
		for i := range r.metas {
			if r.retracted > 0 && r.metas[i].Retracted {
				continue
			}
			id := r.rows[i*r.arity+c]
			if w, b := id>>6, uint64(1)<<(id&63); bits[w]&b == 0 {
				bits[w] |= b
				n++
			}
		}
		for i := c; i < len(r.rows); i += r.arity {
			bits[r.rows[i]>>6] = 0
		}
		r.distinct[c] = n
	}
}
