package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/vadalog"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	s := sortedCopy(xs)
	if got := quantile(s, 0.95); !near(got, 9.55) {
		t.Errorf("p95 = %v, want 9.55", got)
	}
	if got := quantile(s, 1); !near(got, 10) {
		t.Errorf("p100 = %v, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := exclusiveQuartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = exclusiveQuartiles([]float64{4, 1, 2})
	if !near(q1, 1) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if sm := summarize(xs); sm.N != 10 || !near(sm.Min, 1) || !near(sm.Q1, 3.25) || !near(sm.Q3, 7.75) {
		t.Errorf("summarize = %+v", sm)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be NaN")
	}
}

func TestSelfTimeSubtractsCoveredChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50}, // overlaps span 2
		{ID: 4, Parent: 1, StartNS: 60, EndNS: 70},
		{ID: 5, Parent: 3, StartNS: 25, EndNS: 45},
		{ID: 6, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 20, 3: 10, 4: 10, 5: 20, 6: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerLaysOutSyntheticChildren(t *testing.T) {
	tr := newTracer("w")
	run := tr.begin("run", 0, 1)
	tr.end(run)
	tr.spans[run-1].EndNS = tr.spans[run-1].StartNS + 100
	tr.synthetic("match", run, 1, 0, 60)
	tr.synthetic("admit", run, 1, 60, 30)
	if self := selfTimes(tr.spans)[run]; self != 10 {
		t.Errorf("self time of run = %d, want 10", self)
	}
}

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDef{Name: "reason_s", Unit: "s", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "facts_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{1.0, 1.4, 0.7, 1.3, 0.8, 1.0}
	for _, c := range []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"same", lowerIsBetter, steady, steady, verdictOK},
		{"within bound", lowerIsBetter, steady, scale(1.05), verdictOK},
		{"slower", lowerIsBetter, steady, scale(1.2), verdictRegressed},
		{"faster", lowerIsBetter, steady, scale(0.8), verdictImproved},
		{"more throughput", higherIsBetter, steady, scale(1.2), verdictImproved},
		{"less throughput", higherIsBetter, steady, scale(0.8), verdictRegressed},
		{"noisy base", lowerIsBetter, noisy, steady, verdictUnresolved},
		{"noisy change", lowerIsBetter, steady, noisy, verdictUnresolved},
		{"single run", lowerIsBetter, steady, []float64{1}, verdictUnresolved},
		{"better, but within the change's own spread", lowerIsBetter, steady, []float64{0.9, 1.0, 0.95, 0.97, 0.92, 1.02}, verdictOK},
		{"noisy set-up is still judged by its medians", metricDef{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25}, noisy, noisy, verdictOK},
	} {
		if _, got := judge(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _ := judge(higherIsBetter, steady, scale(0.8)); !near(worse, 0.2) {
		t.Errorf("throughput down a fifth: worse = %v, want 0.2", worse)
	}
}

// TestManifest holds BENCHMARK.json to the tables it is generated from and
// to the limits the benchmark driver enforces.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from `vadabench manifest`; regenerate it")
	}
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Errorf("setup_s is missing")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("per-layer metric %+v is malformed", d)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
}

func TestExpectedCoversEveryWorkload(t *testing.T) {
	var all map[string]outcome
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if _, ok := all[w.name]; !ok {
			t.Errorf("expected.json has no entry for %s", w.name)
		}
	}
}

func TestOutcomeMismatchIsAnError(t *testing.T) {
	base := outcome{Derived: 10, Outputs: map[string]int{"p": 3}, NullFacts: map[string]int{"p": 1}, Digest: "aa"}
	if err := base.equal(base); err != nil {
		t.Errorf("equal outcomes: %v", err)
	}
	for name, o := range map[string]outcome{
		"derived": {Derived: 11, Outputs: base.Outputs, NullFacts: base.NullFacts, Digest: "aa"},
		"count":   {Derived: 10, Outputs: map[string]int{"p": 4}, NullFacts: base.NullFacts, Digest: "aa"},
		"nulls":   {Derived: 10, Outputs: base.Outputs, NullFacts: map[string]int{"p": 0}, Digest: "aa"},
		"extra":   {Derived: 10, Outputs: map[string]int{"p": 3, "q": 0}, NullFacts: base.NullFacts, Digest: "aa"},
		"digest":  {Derived: 10, Outputs: base.Outputs, NullFacts: base.NullFacts, Digest: "ab"},
	} {
		if o.equal(base) == nil {
			t.Errorf("%s: a differing outcome compared equal", name)
		}
	}
}

// tinyRun runs one workload at the smoke-test size.
func tinyRun(t *testing.T, w *workload, traced bool) *runResult {
	t.Helper()
	cfg := runConfig{w: w, seed: 7, seconds: 0.05, sz: sizeTiny, outDir: t.TempDir(), log: io.Discard}
	run := runUntraced
	if traced {
		run = runTraced
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmoke runs all seven workloads at tiny size, untraced and (unless
// -short) traced, and holds the results to what BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res := tinyRun(t, w, false)
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s: end-to-end metric %s missing or in unit %q", w.name, d.Name, v.Unit)
				}
				if !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, d.Name, v.Value)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
			}
			if testing.Short() {
				return
			}
			a, b := tinyRun(t, w, true), tinyRun(t, w, true)
			for _, d := range perLayer {
				v, ok := a.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: per-layer metric %s missing, in unit %q or not a number (%v)", w.name, d.Name, v.Unit, v.Value)
				}
			}
			if len(a.Metrics) != len(perLayer) {
				t.Errorf("%s: %d metrics, want %d", w.name, len(a.Metrics), len(perLayer))
			}
			// Counts made by the program repeat exactly from run to run.
			for _, name := range []string{"pipeline.derived_facts", "chase.derived_facts", "storage.rows", "core.checked", "parser.rules", "rewrite.rules_out"} {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %s = %v, then %v", w.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if a.Metrics["pipeline.derived_facts"].Value+a.Metrics["chase.derived_facts"].Value == 0 {
				t.Errorf("%s: no derived facts reported", w.name)
			}
		})
	}
}

// TestVerifiersRejectWrongAnswers corrupts a correct answer of each
// workload and requires its reference check to notice.
func TestVerifiersRejectWrongAnswers(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			p, err := prepare(w, 7, sizeTiny, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			answers, _, err := checkedPass(ctx, p, &tally{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.verify(ctx, p, answers); err != nil {
				t.Fatalf("correct answers rejected: %v", err)
			}
			// Corrupt the largest ground output of payload 0 two ways.
			var pred string
			for _, q := range p.outs {
				if lines, _ := groundLines(answers[0], q); len(lines) > 0 && len(answers[0].outputs[q]) > len(answers[0].outputs[pred]) {
					pred = q
				}
			}
			if pred == "" {
				t.Skip("no ground output fact at this size")
			}
			good := answers[0].outputs[pred]
			bogus := good[0]
			for _, f := range good {
				if f.IsGround() {
					bogus = f
				}
			}
			bogus.Args = append([]vadalog.Value{vadalog.Str("no-such-constant")}, bogus.Args[1:]...)
			for what, bad := range map[string][]vadalog.Fact{
				"emptied":          nil,
				"with a fact more": append(append([]vadalog.Fact(nil), good...), bogus),
			} {
				answers[0].outputs[pred] = bad
				if err := w.verify(ctx, p, answers); err == nil {
					t.Errorf("%s %s passed the reference check", pred, what)
				}
			}
		})
	}
}
