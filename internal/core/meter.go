package core

// Meter is the engines' derivation budget: the admission path charges every
// admitted fact (Charge) and refuses a step once the budget is used up. Each
// admit.Core owns its meter and admits on one goroutine, so the counter is
// a plain one.
type Meter struct {
	limit int64
	used  int64

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

// SetLimit replaces the derivation budget. It is only safe between runs:
// raising the budget is how a session resumes after a budget-exhausted
// partial result.
func (m *Meter) SetLimit(limit int) { m.limit = int64(limit) }

// Used returns the number of derivations charged so far.
func (m *Meter) Used() int { return int(m.used) }

// Charge records one derivation. The caller has checked the budget first
// (admit.Core asks before a step touches anything); EDB loads, which are
// never rejected, charge unconditionally.
func (m *Meter) Charge() { m.used++ }

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
