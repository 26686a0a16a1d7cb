package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/vadalog"
)

// runTraced measures the per-layer metrics of one workload: front-end
// passes, traced tasks interleaved with untraced ones (their ratio is the
// tracing overhead), getters read from the last traced task, then the
// kernels. The window is shared out in fixed parts so that every section
// gets its turn whatever the workload's size.
func runTraced(ctx context.Context, cfg runConfig) (*runResult, error) {
	p, _, cleanup, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	tl := &tally{}
	answers, want, err := checkedPass(ctx, p, tl)
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	tr := newTracer(cfg.w.name)
	vals := map[string]float64{}

	// Front end: every compile-time layer on its own.
	var fe *frontEnd
	front := map[string][]float64{}
	start := time.Now()
	for task := 1; task <= 3 || time.Since(start) < window/10; task++ {
		if fe, err = traceFrontEnd(tr, p.in.src, -task); err != nil {
			return nil, err
		}
		for name, d := range map[string]time.Duration{
			"parser.parse_s": fe.parse, "lint.vet_s": fe.lint,
			"rewrite.apply_s": fe.rewrite, "analysis.analyze_s": fe.analyze, "eval.compile_rules_s": fe.compileRule,
			"pipeline.compile_s": fe.pipelineCompile, "chase.compile_s": fe.chaseCompile,
			"pipeline.new_session_s": fe.newSession, "chase.new_engine_s": fe.newEngine,
		} {
			front[name] = append(front[name], d.Seconds())
		}
	}
	for name, xs := range front {
		vals[name] = median(xs)
	}
	vals["parser.mb_per_s"] = float64(len(p.in.src)) / 1e6 / vals["parser.parse_s"]
	vals["parser.rules"] = float64(fe.rulesIn)
	vals["rewrite.rules_out"] = float64(fe.rulesOut)

	// Tasks: traced and untraced in turn, each from a collected heap.
	var traced, untraced []float64
	spans := map[string][]float64{}
	// last is the most recent traced task on payload 0: the getters and the
	// kernels read one fixed payload, so their counts repeat from run to run
	// however many tasks the window had room for.
	var last *driven
	start = time.Now()
	for task := 1; task <= 2 || time.Since(start) < window*4/10; task++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := task - 1
		runtime.GC()
		d, err := tracedTask(ctx, tr, p, fe, task, i)
		if err == nil {
			err = p.checkShape(&answer{derived: d.derived, outputs: d.outputs}, i, want)
		}
		tl.note(err)
		if err != nil {
			return nil, err
		}
		if i%len(p.in.edbs) == 0 {
			last = d
		}
		traced = append(traced, d.task.Seconds())
		for name, x := range map[string]time.Duration{
			"new_session": d.newSession, "load": d.load - d.scan, "scan": d.scan, "run": d.run, "output": d.output,
			"match": d.match, "prepass": d.prepass, "admit": d.admit, "front": d.parse + d.compile,
		} {
			spans[name] = append(spans[name], x.Seconds())
		}
		runtime.GC()
		_, took, err := p.checkedTask(ctx, i, want, tl)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, took.Seconds())
	}
	med := func(name string) float64 { return median(spans[name]) }
	run := med("run")
	eng, other := "pipeline", "chase"
	if cfg.w.engine == vadalog.EngineChase {
		eng, other = other, eng
	}
	vals[eng+".run_s"], vals[other+".run_s"] = run, 0
	vals[eng+".admit_s"], vals[other+".admit_s"] = med("admit"), 0
	vals[eng+".sched_self_s"], vals[other+".sched_self_s"] = run-med("match")-med("prepass")-med("admit"), 0
	vals[eng+".derived_facts"], vals[other+".derived_facts"] = float64(last.derived), 0
	vals["eval.match_s"] = med("match")
	vals["eval.match_share"] = med("match") / run
	vals["storage.prepass_s"] = med("prepass")
	vals["storage.load_s"] = med("load")
	vals["source.scan_s"] = med("scan")
	vals["source.chunks"] = float64(last.chunks)
	vals["source.rows_per_s"] = 0
	if last.rows > 0 {
		vals["source.rows_per_s"] = float64(last.rows) / med("scan")
	}
	vals["vadalog.output_s"] = med("output")
	vals["vadalog.facade_self_s"] = median(untraced) - (med("front") + med("new_session") + med("load") + med("scan") + run + med("output"))
	vals["vadalog.trace_overhead"] = median(traced)/median(untraced) - 1

	// Getters, read from the last traced task on payload 0.
	vals["planner.derives"] = float64(last.derives)
	vals["planner.replans"] = float64(last.replans)
	vals["planner.shared_firings"] = float64(last.sharedFirings)
	db := last.db
	vals["storage.rows"] = float64(db.TotalFacts())
	vals["storage.live_rows"] = float64(db.LiveFacts())
	vals["storage.live_ratio"] = float64(db.LiveFacts()) / float64(db.TotalFacts())
	vals["storage.bytes_per_fact"] = float64(db.Bytes()) / float64(db.TotalFacts())
	vals["storage.interner_bytes"] = float64(db.Interner().Bytes())
	indexes := 0
	for _, pred := range db.Predicates() {
		indexes += db.Lookup(pred).IndexCount()
	}
	vals["storage.index_count"] = float64(indexes)
	var st core.Stats
	summary := 0
	if s, ok := last.strat.(*core.Strategy); ok {
		st, summary = s.Stats(), s.SummarySize()
	}
	vals["core.checked"] = float64(st.Checked)
	vals["core.iso_checks"] = float64(st.IsoChecks)
	vals["core.iso_hits"] = float64(st.IsoHits)
	vals["core.beyond_stop"] = float64(st.BeyondStop)
	vals["core.within_stop"] = float64(st.WithinStop)
	vals["core.new_trees"] = float64(st.NewTrees)
	vals["core.patterns"] = float64(st.Patterns)
	vals["core.summary_size"] = float64(summary)
	vals["core.pruned_ratio"] = 0
	if st.Checked > 0 {
		vals["core.pruned_ratio"] = float64(st.IsoHits+st.BeyondStop) / float64(st.Checked)
	}
	var cands, dups, admits int64
	if last.meter != nil {
		cs, ds, as := last.meter.ShardStats()
		for i := range cs {
			cands, dups, admits = cands+cs[i], dups+ds[i], admits+as[i]
		}
	}
	vals["chase.shard_cands"] = float64(cands)
	vals["chase.shard_dups"] = float64(dups)
	vals["chase.shard_admits"] = float64(admits)
	vals["chase.dup_ratio"] = 0
	if cands > 0 {
		vals["chase.dup_ratio"] = float64(dups) / float64(cands)
	}

	// The tail percentile of the service shape, from a short closed loop.
	vals["vadalog.query_p95_ms"] = 0
	if cfg.w.clients > 1 {
		loop := p.closedLoop(ctx, window/10, cfg.w.clients, want, tl)
		if len(loop.latencies) == 0 {
			return nil, fmt.Errorf("%s: no request succeeded: %w", cfg.w.name, tl.firstErr)
		}
		vals["vadalog.query_p95_ms"] = 1000 * quantile(sortedCopy(seconds(loop.latencies)), 0.95)
	}

	// Kernels, over payload 0 and the final database of its traced task.
	edb := p.in.firstPayload()
	final := storedFacts(db)
	shards := runtime.GOMAXPROCS(0)
	kernels := []map[string]float64{
		internKernel(window/25, edb),
		storageKernels(window*2/10, final, shards),
		checkKernel(window*2/25, fe.res, final),
		aggKernel(window/25, edb),
		planKernel(window/25, db, fe.rules),
	}
	cells, err := parseCellKernel(window/25, p.in)
	if err != nil {
		return nil, err
	}
	for _, k := range append(kernels, cells) {
		for name, v := range k {
			vals[name] = v
		}
	}

	fmt.Fprintf(cfg.log, "%s seed %d: traced task %.6f s (n %d), untraced %.6f s, shares of the traced task:\n  %s\n",
		cfg.w.name, cfg.seed, median(traced), len(traced), median(untraced), phaseShares(last))
	path, err := tr.write(cfg.outDir, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "  %d spans written to %s\n", len(tr.spans), path)
	for _, d := range perLayer {
		fmt.Fprintf(cfg.log, "  %-26s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}

	return finish(ctx, cfg, p, answers, tl, report(perLayer, vals)), nil
}
