package storage

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
)

// This file implements the partitioned admission pre-pass. No engine runs
// it: its only caller is the benchmark harness kernel storage.prepass_ns
// (bench/kernels.go), so the [benchmark] change that drops that kernel
// deletes this file, shard_test.go, the storage.merge fault site,
// Database.SetShards / Relation.SetShards / RetractGen and the Meter's
// shard counters with it.
//
// Candidate head rows, interned and hashed by the caller, are bucketed
// into shards by the low bits of the row hash, and one goroutine per shard
// computes a dedup verdict for every candidate it owns — against the
// relation's duplicate table (pre-batch state) and against the earlier
// candidates of the same shard (batch-local duplicates). The partition is
// the pre-pass's own: a relation keeps one flat duplicate table, which any
// number of goroutines may probe while nothing mutates it. Verdicts are
// advisory for freshness and exact for duplication at pre-pass time.

// siteMerge guards the shard-merge boundary: it fires on the calling
// (serial) goroutine before any shard goroutine spawns and before any
// candidate is admitted, so an injected crash leaves the store exactly at
// the previous batch's state and the engines' requeue paths resume it.
var siteMerge = fault.NewPanicSite("storage.merge")

// PrepassCand is one candidate head fact flattened for the pre-pass: the
// target relation, the row interned and hashed during the match phase
// (len(Row) must equal Rel.Arity()), and the relation's retraction
// generation at flatten time — the merge-time guard that invalidates
// verdicts once a retraction intervenes.
type PrepassCand struct {
	Rel  *Relation
	Row  []uint32
	Hash uint64
	Gen  uint64
}

// Pre-pass verdicts. Only duplicate verdicts let the merge skip its own
// probe (and only while the candidate's retraction generation still
// holds); Unknown and Fresh both take the merge's O(1) re-probe, so a
// skipped or raced pre-pass is never a correctness problem.
const (
	// PrepassUnknown: the candidate was not examined (pre-pass skipped).
	PrepassUnknown uint8 = iota
	// PrepassFresh: no equal row stored pre-batch, no earlier equal candidate.
	PrepassFresh
	// PrepassDupStored: an equal row was already stored before the batch.
	PrepassDupStored
	// PrepassDupBatch: equal to the earlier candidate dupOf[i] of this batch.
	PrepassDupBatch
)

// prepassMinCands bounds the goroutine fan-out: batches with fewer
// candidates than this are merged probe-only (the verdict phase would cost
// more than it saves). The threshold depends only on the candidate count,
// never on scheduling, so determinism is unaffected — verdicts only ever
// remove work the merge would redo identically.
const prepassMinCands = 256

// prepass carries the shard goroutines' shared state. The slices are
// written in owner-exclusive slots: goroutine s writes verdict[i]/dupOf[i]
// only for candidates whose hash maps to shard s, and the WaitGroup in
// RunPrepass orders all writes before the merge reads them.
type prepass struct {
	cands   []PrepassCand
	verdict []uint8
	dupOf   []int32
	next    []int32 // batch-local hash chains, 1-based (0 = end); slot i written only by the shard owning cands[i]
	mask    uint64
	meter   *core.Meter

	panicMu  sync.Mutex
	panicVal any
}

// RunPrepass computes dedup verdicts for cands into verdict/dupOf (both
// len(cands), pre-filled with PrepassUnknown). It fires the storage.merge
// fault seam on the calling goroutine, then — when shards > 1 and the
// batch is large enough — fans one goroutine per shard out over the
// candidates. A panic on a shard goroutine is latched and re-raised on
// the calling goroutine, so engine panic isolation converts it into a
// typed resumable error exactly like a serial-phase crash.
func RunPrepass(cands []PrepassCand, verdict []uint8, dupOf []int32, shards int, meter *core.Meter) {
	if len(cands) == 0 {
		return
	}
	siteMerge.Hit()
	if shards <= 1 || len(cands) < prepassMinCands {
		return
	}
	p := &prepass{cands: cands, verdict: verdict, dupOf: dupOf,
		next: make([]int32, len(cands)), mask: uint64(shards - 1), meter: meter}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			p.runShard(s)
		}(s)
	}
	wg.Wait()
	if p.panicVal != nil {
		panic(p.panicVal)
	}
}

// noteShardPanic latches the first shard-goroutine crash for re-raising on
// the merge goroutine.
func (p *prepass) noteShardPanic(r any) {
	p.panicMu.Lock()
	defer p.panicMu.Unlock()
	if p.panicVal == nil {
		p.panicVal = r
	}
}

// runShard computes the verdicts of every candidate whose hash maps to
// shard s. It reads the relations' duplicate tables (ContainsRowHash — safe
// concurrently because no mutation runs during the pre-pass) and writes only
// shard-local structures: a private batch-local pending table and the
// owner-exclusive verdict slots of its own candidates. The frozenwrite
// analyzer roots this method and verifies no mutating storage call is
// reachable from it.
func (p *prepass) runShard(s int) {
	defer func() {
		if r := recover(); r != nil { //vadalint:panicguard shard isolation: latch the crash; RunPrepass re-raises it on the merge goroutine where engine recovery converts it into a typed resumable error
			p.noteShardPanic(r)
		}
	}()
	// pending maps a hash to the 1-based index of this shard's most recent
	// fresh candidate with that hash; earlier ones chain through p.next.
	// One map entry per distinct hash instead of a slice per fresh
	// candidate keeps the pre-pass's own allocations off the admission
	// ledger (reading the nil map before the first fresh candidate is a
	// plain zero).
	var pending map[uint64]int32
	scanned, dups := 0, 0
	for i := range p.cands {
		c := &p.cands[i]
		if c.Rel == nil || c.Hash&p.mask != uint64(s) {
			continue
		}
		scanned++
		if c.Rel.ContainsRowHash(c.Row, c.Hash) {
			p.verdict[i] = PrepassDupStored
			dups++
			continue
		}
		dup := int32(-1)
		for j := pending[c.Hash]; j != 0; j = p.next[j-1] {
			d := &p.cands[j-1]
			if d.Rel == c.Rel && rowsEqual(d.Row, c.Row) {
				dup = j - 1
				break
			}
		}
		if dup >= 0 {
			p.verdict[i] = PrepassDupBatch
			p.dupOf[i] = dup
			dups++
			continue
		}
		p.verdict[i] = PrepassFresh
		if pending == nil {
			pending = make(map[uint64]int32, 64)
		}
		p.next[i] = pending[c.Hash]
		pending[c.Hash] = int32(i) + 1
	}
	if p.meter != nil {
		p.meter.NoteShardScan(s, scanned, dups)
	}
}

// rowsEqual reports whether two interned rows are identical.
func rowsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
