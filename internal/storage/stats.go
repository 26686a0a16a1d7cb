package storage

import (
	"math"
	"math/bits"
)

// This file holds the cheap per-relation statistics that feed the
// cost-based join planner (paper Sec. 6, Optimizations): a live-row
// count, per-column distinct-ID estimates maintained incrementally at
// insert/replace time, and per-index hit counters. Statistics are read
// live, whenever a plan is derived or revalidated.

// sketchRegisters is the register count (m) of the per-column distinct
// sketches. 64 registers give a ~13% standard error — far more precision
// than join ordering needs — at 64 bytes per column.
const sketchRegisters = 64

// alpha64 is the HyperLogLog bias-correction constant for m = 64:
// 0.7213 / (1 + 1.079/m).
const alpha64 = 0.709

// distinctSketch is a small HyperLogLog estimator over interned IDs.
// Updates are O(1) and allocation-free; deletions are not supported, so
// after aggregate supersession (Replace) the estimate may slightly
// overcount — acceptable for ordering decisions, which only need the
// right order of magnitude.
type distinctSketch struct {
	reg [sketchRegisters]uint8
}

// add folds one interned ID into the sketch. The FNV state is passed
// through a murmur-style finalizer: interned IDs are small sequential
// integers and FNV-1a alone leaves their low bits too regular for the
// trailing-zeros rank (estimates skewed ~60% high without it).
func (s *distinctSketch) add(id uint32) {
	h := mixID(fnvOffset64, id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	idx := h & (sketchRegisters - 1)
	// Rank of the remaining bits: position of the lowest set bit, 1-based.
	// The sentinel bit caps the rank so the register never overflows.
	rank := uint8(bits.TrailingZeros64(h>>6|1<<57)) + 1
	if rank > s.reg[idx] {
		s.reg[idx] = rank
	}
}

// estimate returns the sketch's cardinality estimate with the standard
// small-range correction.
func (s *distinctSketch) estimate() float64 {
	sum := 0.0
	zeros := 0
	for _, r := range s.reg {
		sum += 1.0 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	const m = float64(sketchRegisters)
	est := alpha64 * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// RelStats is a snapshot of one relation's planner-facing statistics.
type RelStats struct {
	// Live is the number of non-retracted facts at snapshot time.
	Live int
	// Distinct estimates the number of distinct interned IDs per column
	// (len = arity). Estimates only grow (no deletions), so columns with
	// superseded aggregate intermediates may overcount slightly.
	Distinct []float64
}

// Empty reports whether the snapshot describes a relation with no
// usable statistics (no live rows observed).
func (st RelStats) Empty() bool { return st.Live == 0 && st.Distinct == nil }

// observeRow folds a freshly stored (or replacing) row into the
// per-column sketches.
func (r *Relation) observeRow(row []uint32) {
	if r.sketches == nil {
		r.sketches = make([]distinctSketch, r.arity)
	}
	for i, id := range row {
		r.sketches[i].add(id)
	}
}

// Stats computes the relation's statistics from its current contents. The
// distinct estimates are appended to dst[:0], so a caller that keeps a
// scratch buffer reads them without allocating; Distinct stays nil while
// no row was stored.
func (r *Relation) Stats(dst []float64) RelStats {
	st := RelStats{Live: r.Live()}
	if len(r.sketches) > 0 {
		st.Distinct = dst[:0]
		for i := range r.sketches {
			st.Distinct = append(st.Distinct, r.sketches[i].estimate())
		}
	}
	return st
}

// IndexHits reports how many probes the dynamic index over mask has served
// since it was built; ok is false when no such index exists.
func (r *Relation) IndexHits(mask uint32) (hits int64, ok bool) {
	if ix := r.indexes[mask]; ix != nil {
		return ix.hits, true
	}
	return 0, false
}
