package main

import (
	"bufio"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/planner"
	"repro/internal/source"
	"repro/internal/storage"
	"repro/internal/term"
)

// A kernel calls one layer's public function in a loop over data captured
// from the workload (its inputs and the final database of a traced task)
// and reports the cost of one operation.

// repeat calls pass until budget is spent (at least twice) and returns, per
// name, the median of what the passes reported.
func repeat(budget time.Duration, pass func() map[string]float64) map[string]float64 {
	samples := map[string][]float64{}
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		for k, v := range pass() {
			samples[k] = append(samples[k], v)
		}
	}
	out := make(map[string]float64, len(samples))
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out
}

func nsPerOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// sink keeps the compiler from discarding a kernel's results.
var sink int

// storedFacts lists every stored row of db with its metadata, relation by
// relation in name order.
func storedFacts(db *storage.Database) []*core.FactMeta {
	var metas []*core.FactMeta
	for _, pred := range db.Predicates() {
		rel := db.Lookup(pred)
		for i := 0; i < rel.Len(); i++ {
			metas = append(metas, rel.At(i))
		}
	}
	return metas
}

// internKernel interns every argument of the payload into a fresh table.
func internKernel(budget time.Duration, edb []ast.Fact) map[string]float64 {
	var vals []term.Value
	for _, f := range edb {
		vals = append(vals, f.Args...)
	}
	return repeat(budget, func() map[string]float64 {
		in := storage.NewInterner()
		t := time.Now()
		for _, v := range vals {
			sink += int(in.Intern(v))
		}
		return map[string]float64{"storage.intern_ns": nsPerOp(time.Since(t), len(vals))}
	})
}

// storageKernels rebuilds the final database from its facts and exercises
// the copy: insert of new and of duplicate facts, first index build and
// probes on the largest relation, Freeze, and the dedup pre-pass over every
// stored row at the given shard count.
func storageKernels(budget time.Duration, final []*core.FactMeta, shards int) map[string]float64 {
	return repeat(budget, func() map[string]float64 {
		out := map[string]float64{}
		metas := make([]*core.FactMeta, len(final))
		for i, m := range final {
			metas[i] = &core.FactMeta{Fact: m.Fact, RuleID: -1}
		}
		db := storage.NewDatabase()
		db.SetShards(shards)
		t := time.Now()
		for _, m := range metas {
			db.Insert(m)
		}
		out["storage.insert_ns"] = nsPerOp(time.Since(t), len(metas))
		t = time.Now()
		for _, m := range metas {
			if db.Insert(m) {
				sink++
			}
		}
		out["storage.insert_dup_ns"] = nsPerOp(time.Since(t), len(metas))

		var largest *storage.Relation
		for _, pred := range db.Predicates() {
			if rel := db.Lookup(pred); rel.Arity() > 0 && (largest == nil || rel.Len() > largest.Len()) {
				largest = rel
			}
		}
		if largest != nil {
			const firstColumn = 1
			t = time.Now()
			largest.EnsureIndex(firstColumn)
			out["storage.index_build_s"] = time.Since(t).Seconds()
			n := min(largest.Len(), 200_000)
			t = time.Now()
			for i := 0; i < n; i++ {
				sink += len(largest.LookupIDs(firstColumn, largest.Row(i)))
			}
			out["storage.probe_ns"] = nsPerOp(time.Since(t), n)
		}

		t = time.Now()
		db.Freeze()
		out["storage.freeze_s"] = time.Since(t).Seconds()

		var cands []storage.PrepassCand
		for _, pred := range db.Predicates() {
			rel := db.Lookup(pred)
			for i := 0; i < rel.Len(); i++ {
				row := rel.Row(i)
				cands = append(cands, storage.PrepassCand{Rel: rel, Row: row, Hash: storage.HashRow(row), Gen: rel.RetractGen()})
			}
		}
		verdict, dupOf := make([]uint8, len(cands)), make([]int32, len(cands))
		meter := core.NewMeter(0)
		meter.SetShards(shards)
		t = time.Now()
		storage.RunPrepass(cands, verdict, dupOf, shards, meter)
		out["storage.prepass_ns"] = nsPerOp(time.Since(t), len(cands))
		return out
	})
}

// checkKernel replays every stored fact's metadata through a fresh
// termination strategy.
func checkKernel(budget time.Duration, res *analysis.Result, final []*core.FactMeta) map[string]float64 {
	return repeat(budget, func() map[string]float64 {
		st := core.NewStrategy(res)
		t := time.Now()
		for _, m := range final {
			if st.CheckTermination(m) {
				sink++
			}
		}
		return map[string]float64{"core.check_ns": nsPerOp(time.Since(t), len(final))}
	})
}

// aggKernel feeds the ownership stakes of the payload through a monotonic
// sum grouped by the owned company, one contributor per owner: the
// aggregate of the control program. Payloads without own/3 facts have no
// aggregate to exercise and report 0.
func aggKernel(budget time.Duration, edb []ast.Fact) map[string]float64 {
	var stakes []ast.Fact
	for _, f := range edb {
		if f.Pred == "own" && len(f.Args) == 3 {
			stakes = append(stakes, f)
		}
	}
	if len(stakes) == 0 {
		return map[string]float64{"eval.agg_update_ns": 0, "eval.agg_groups": 0}
	}
	return repeat(budget, func() map[string]float64 {
		st := eval.NewAggState("msum", nil)
		t := time.Now()
		for _, f := range stakes {
			if _, improved, err := st.Update(f.Args[1:2], f.Args[0:1], f.Args[2]); err == nil && improved {
				sink++
			}
		}
		return map[string]float64{
			"eval.agg_update_ns": nsPerOp(time.Since(t), len(stakes)),
			"eval.agg_groups":    float64(st.Groups()),
		}
	})
}

// planKernel derives a plan for every (rule, pinned atom) pair against the
// final database's statistics, from an empty plan cache.
func planKernel(budget time.Duration, db *storage.Database, rules []*eval.CompiledRule) map[string]float64 {
	return repeat(budget, func() map[string]float64 {
		pl := planner.New(planner.LiveCatalog{DB: db})
		t := time.Now()
		for _, cr := range rules {
			for pin := range cr.Pos {
				sink += len(pl.PlanFor(cr, pin).Steps)
			}
		}
		return map[string]float64{"planner.plan_s": time.Since(t).Seconds()}
	})
}

// parseCellKernel decodes the cells of the workload's CSV file, or of the
// payload rendered the way the CSV sink would write it.
func parseCellKernel(budget time.Duration, in *input) (map[string]float64, error) {
	var cells []string
	if in.csvPath != "" {
		f, err := os.Open(in.csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			cells = append(cells, strings.Split(sc.Text(), ",")...)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	} else {
		for _, f := range in.edbs[0] {
			for _, v := range f.Args {
				cells = append(cells, source.EncodeCell(v))
			}
		}
	}
	return repeat(budget, func() map[string]float64 {
		t := time.Now()
		for _, c := range cells {
			if source.ParseCell(c).IsNumeric() {
				sink++
			}
		}
		return map[string]float64{"source.parsecell_ns": nsPerOp(time.Since(t), len(cells))}
	}), nil
}
