package core

import "sync/atomic"

// reserveHeadroom and reserveFloor bound transient worker-side
// reservations: a frozen-epoch match phase may buffer far more candidates
// than it will admit (duplicates and strategy-rejected facts are only
// filtered on the serial admit path, and were never budget-charged by the
// serial engine either), so the reservation ceiling is a runaway-memory
// backstop, not a budget check — reserveHeadroom× the budget, but never
// below reserveFloor so tight user budgets cannot make duplicate-heavy
// batches fail spuriously. Admissions themselves are always metered
// exactly, by the serial admit path.
const (
	reserveHeadroom = 4
	reserveFloor    = 1 << 20
)

// Meter is the engines' derivation budget, safe for concurrent use. The
// serial admission path charges admitted facts exactly (Charge/TryCharge),
// while parallel match workers reserve candidate capacity transiently
// (Reserve) so a batch of a non-terminating program aborts instead of
// buffering unbounded candidate facts. Reservations are released wholesale
// at batch boundaries (ResetPending); they never count as derivations.
type Meter struct {
	limit   int64
	used    atomic.Int64
	pending atomic.Int64

	// Per-shard accounting of storage.RunPrepass, which only the benchmark
	// harness calls; the counters leave with storage/shard.go. The slices
	// are plain ints, not atomics, because the slots are exclusive:
	// shardCands/shardDups[s] is written only by the pre-pass goroutine
	// owning shard s.
	shardCands []int64
	shardDups  []int64
}

// NewMeter returns a meter admitting at most limit derivations.
func NewMeter(limit int) *Meter {
	return &Meter{limit: int64(limit)}
}

// Limit returns the derivation budget.
func (m *Meter) Limit() int { return int(m.limit) }

// SetLimit replaces the derivation budget. It is only safe between runs
// (no workers in flight): raising the budget is how a session resumes
// after a budget-exhausted partial result.
func (m *Meter) SetLimit(limit int) { m.limit = int64(limit) }

// Used returns the number of derivations charged so far.
func (m *Meter) Used() int { return int(m.used.Load()) }

// Charge records one derivation unconditionally (EDB loads, which are
// never rejected).
func (m *Meter) Charge() { m.used.Add(1) }

// TryCharge records one derivation unless the budget is exhausted; it
// reports whether the charge was accepted. Callers reject the chase step
// on false.
func (m *Meter) TryCharge() bool {
	for {
		u := m.used.Load()
		if u >= m.limit {
			return false
		}
		if m.used.CompareAndSwap(u, u+1) {
			return true
		}
	}
}

// Reserve transiently accounts n candidate facts a match worker is about
// to buffer; it reports false when charged derivations plus pending
// reservations exceed the runaway ceiling (reserveHeadroom× the budget,
// floored at reserveFloor), telling the worker to stop buffering.
// Whether a batch crosses the ceiling at all is scheduling-independent
// (reservations only accumulate within a batch), though which caller
// observes the crossing is not — engines must turn a failed reservation
// into a whole-batch abort, never a partial one.
func (m *Meter) Reserve(n int) bool {
	p := m.pending.Add(int64(n))
	ceil := reserveHeadroom * m.limit
	if ceil < reserveFloor {
		ceil = reserveFloor
	}
	return m.used.Load()+p <= ceil
}

// ResetPending releases all transient reservations (batch boundary).
func (m *Meter) ResetPending() { m.pending.Store(0) }

// SetShards sizes the per-shard counters for storage.RunPrepass. Safe only
// with no pre-pass in flight; existing counts are preserved when the shard
// count is unchanged.
func (m *Meter) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	if len(m.shardCands) == n {
		return
	}
	m.shardCands = make([]int64, n)
	m.shardDups = make([]int64, n)
}

// NoteShardScan records that the pre-pass goroutine owning shard
// inspected cands candidates and found dups duplicates. Called only from
// that shard's goroutine.
func (m *Meter) NoteShardScan(shard, cands, dups int) {
	if shard < len(m.shardCands) {
		m.shardCands[shard] += int64(cands)
		m.shardDups[shard] += int64(dups)
	}
}

// ShardStats returns copies of the per-shard pre-pass counters: candidates
// scanned and duplicates detected per shard, empty when SetShards was never
// called. No engine admits by shard, so admits is all zeros; it keeps the
// shape the benchmark harness reads.
func (m *Meter) ShardStats() (cands, dups, admits []int64) {
	return append([]int64(nil), m.shardCands...),
		append([]int64(nil), m.shardDups...),
		make([]int64, len(m.shardCands))
}
