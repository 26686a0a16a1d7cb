package main

// metricDef names one metric of the benchmark; BENCHMARK.json is generated
// from these tables (`vadabench manifest`), so the names a run emits and
// the names the manifest promises cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the reasoner sees. Every workload reports
// every one of them (a run with -trace 0). Bound is the share of the
// parent commit's median by which the metric may worsen before a change
// counts as a regression. The bounds are set from the run-to-run spread
// measured on the baseline host (README, "Steadiness"): three times the
// widest spread seen on any workload, and never past the quarter the
// benchmark driver allows.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"reason_s", "s", lower, 0.25},
	{"facts_per_s", "1/s", higher, 0.25},
	{"tasks_per_s", "1/s", higher, 0.25},
	{"compile_s", "s", lower, 0.25},
	{"first_answer_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"retained_bytes_per_fact", "B", lower, 0.05},
	{"allocs_per_fact", "count", lower, 0.10},
	{"alloc_bytes_per_fact", "B", lower, 0.15},
}

// perLayer lists the metrics of single layers, prefix = layer (= module of
// this repository). Every workload reports every one of them (a run with
// -trace 1); a metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"parser.parse_s", "s", lower, 0},
	{"parser.mb_per_s", "MB/s", higher, 0},
	{"parser.rules", "count", lower, 0},
	{"lint.vet_s", "s", lower, 0},
	{"rewrite.apply_s", "s", lower, 0},
	{"rewrite.rules_out", "count", lower, 0},
	{"analysis.analyze_s", "s", lower, 0},
	{"eval.compile_rules_s", "s", lower, 0},
	{"eval.match_s", "s", lower, 0},
	{"eval.match_share", "fraction", lower, 0},
	{"eval.agg_update_ns", "ns", lower, 0},
	{"eval.agg_groups", "count", lower, 0},
	{"planner.derives", "count", lower, 0},
	{"planner.replans", "count", lower, 0},
	{"planner.shared_firings", "count", higher, 0},
	{"planner.plan_s", "s", lower, 0},
	{"storage.load_s", "s", lower, 0},
	{"storage.intern_ns", "ns", lower, 0},
	{"storage.insert_ns", "ns", lower, 0},
	{"storage.insert_dup_ns", "ns", lower, 0},
	{"storage.probe_ns", "ns", lower, 0},
	{"storage.index_build_s", "s", lower, 0},
	{"storage.index_count", "count", lower, 0},
	{"storage.freeze_s", "s", lower, 0},
	{"storage.prepass_s", "s", lower, 0},
	{"storage.prepass_ns", "ns", lower, 0},
	{"storage.rows", "count", lower, 0},
	{"storage.live_rows", "count", lower, 0},
	{"storage.live_ratio", "fraction", higher, 0},
	{"storage.bytes_per_fact", "B", lower, 0},
	{"storage.interner_bytes", "B", lower, 0},
	{"core.check_ns", "ns", lower, 0},
	{"core.checked", "count", lower, 0},
	{"core.iso_checks", "count", lower, 0},
	{"core.iso_hits", "count", higher, 0},
	{"core.beyond_stop", "count", higher, 0},
	{"core.within_stop", "count", higher, 0},
	{"core.new_trees", "count", lower, 0},
	{"core.patterns", "count", lower, 0},
	{"core.summary_size", "count", lower, 0},
	{"core.pruned_ratio", "fraction", higher, 0},
	{"source.scan_s", "s", lower, 0},
	{"source.rows_per_s", "1/s", higher, 0},
	{"source.chunks", "count", lower, 0},
	{"source.parsecell_ns", "ns", lower, 0},
	{"pipeline.compile_s", "s", lower, 0},
	{"chase.compile_s", "s", lower, 0},
	{"pipeline.new_session_s", "s", lower, 0},
	{"chase.new_engine_s", "s", lower, 0},
	{"pipeline.run_s", "s", lower, 0},
	{"chase.run_s", "s", lower, 0},
	{"pipeline.admit_s", "s", lower, 0},
	{"chase.admit_s", "s", lower, 0},
	{"pipeline.sched_self_s", "s", lower, 0},
	{"chase.sched_self_s", "s", lower, 0},
	{"chase.shard_cands", "count", lower, 0},
	{"chase.shard_dups", "count", lower, 0},
	{"chase.shard_admits", "count", lower, 0},
	{"chase.dup_ratio", "fraction", lower, 0},
	{"pipeline.derived_facts", "count", lower, 0},
	{"chase.derived_facts", "count", lower, 0},
	{"vadalog.output_s", "s", lower, 0},
	{"vadalog.facade_self_s", "s", lower, 0},
	{"vadalog.trace_overhead", "fraction", lower, 0},
	// Demoted from end to end: a tail percentile needs hundreds of samples,
	// which only serve-small has, and it does not repeat within a tenth on
	// a shared host.
	{"vadalog.query_p95_ms", "ms", lower, 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report builds the metrics object of a run from the values measured,
// in the units the tables fix. A name missing from vals is a bug in the
// harness and panics, so a run can never silently drop a promised metric.
func report(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			panic("bench: metric not measured: " + d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}
