package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// runConfig is one invocation of the benchmark on one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	sz      size
	// outDir receives generated input files and trace files; it is created
	// on demand and generated inputs are removed again.
	outDir string
	// log receives the human-readable account of the run.
	log io.Writer
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// serveSlices is how many slices the closed loop of the service-shaped
// workload is cut into; each slice is one repetition.
const serveSlices = 7

// best is the least of a sample of durations, in seconds.
func best(ds []time.Duration) float64 { return slices.Min(seconds(ds)) }

// setupShare is the part of the measured window that set-up is repeated
// for (and at least three times): a set-up of a few milliseconds needs many
// repetitions before its best time repeats from run to run. A tenth of the
// default twelve seconds is 1.2 s; at half that, two suites of the same
// code twenty minutes apart disagreed by 24 % on csv-stream's set-up, which
// writes a file.
const setupShare = 10

// setUp repeats the workload's set-up and returns the last product and the
// duration of each repetition.
func setUp(cfg runConfig) (*prepared, []time.Duration, func(), error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "inputs-")
	if err != nil {
		return nil, nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	var p *prepared
	var took []time.Duration
	floor := time.Duration(cfg.seconds*float64(time.Second)) / setupShare
	start := time.Now()
	for i := 0; i < 3 || (time.Since(start) < floor && i < 500); i++ {
		t := time.Now()
		if p, err = prepare(cfg.w, cfg.seed, cfg.sz, dir); err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		took = append(took, time.Since(t))
	}
	return p, took, cleanup, nil
}

// checkedPass runs every payload once, serially, and returns the answers
// and their shapes. It doubles as the warm-up.
func checkedPass(ctx context.Context, p *prepared, tl *tally) ([]*answer, []shape, error) {
	answers := make([]*answer, len(p.in.edbs))
	shapes := make([]shape, len(p.in.edbs))
	for i := range p.in.edbs {
		a, err := p.task(ctx, i)
		tl.note(err)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: payload %d: %w", p.w.name, i, err)
		}
		answers[i], shapes[i] = a, p.shapeOf(a)
	}
	return answers, shapes, nil
}

// verifyAnswers applies the workload's reference check and, at the seed
// and size expected.json covers, the committed expectation.
func verifyAnswers(ctx context.Context, cfg runConfig, p *prepared, answers []*answer) []error {
	var errs []error
	if err := cfg.w.verify(ctx, p, answers); err != nil {
		errs = append(errs, fmt.Errorf("%s: reference check: %w", cfg.w.name, err))
	}
	if cfg.seed == expectedSeed && cfg.sz == sizeDefault {
		if err := checkExpected(cfg.w.name, outcomeOf(p.outs, answers)); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", cfg.w.name, err))
		}
	}
	return errs
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, cfg runConfig) (*runResult, error) {
	p, setups, cleanup, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	tl := &tally{}
	answers, want, err := checkedPass(ctx, p, tl)
	if err != nil {
		return nil, err
	}

	// Every time below is the best (least) of the run's repetitions: on a
	// shared host interference only ever adds time, and it comes in phases
	// longer than a run, so the minimum repeats from run to run where the
	// median does not (README, "Steadiness"). Medians and quartiles of each
	// sample are logged next to it.
	window := time.Duration(cfg.seconds * float64(time.Second))
	vals := map[string]float64{"setup_s": best(setups)}
	var rs *rounds
	if cfg.w.clients > 1 {
		// Service shape: closed-loop slices give latency, throughput and
		// allocations; single-client rounds afterwards give the rest.
		var total loopResult
		var p50s, rates, factRates []float64
		for i := 0; i < serveSlices; i++ {
			loop := p.closedLoop(ctx, window*7/10/serveSlices, cfg.w.clients, want, tl)
			if len(loop.latencies) == 0 {
				return nil, fmt.Errorf("%s: no request succeeded: %w", cfg.w.name, tl.firstErr)
			}
			p50s = append(p50s, median(seconds(loop.latencies)))
			rates = append(rates, float64(len(loop.latencies))/loop.wall.Seconds())
			factRates = append(factRates, float64(loop.derived)/loop.wall.Seconds())
			total.latencies = append(total.latencies, loop.latencies...)
			total.derived += loop.derived
			total.mallocs += loop.mallocs
			total.bytes += loop.bytes
		}
		vals["reason_s"] = slices.Min(p50s)
		vals["tasks_per_s"] = slices.Max(rates)
		vals["facts_per_s"] = slices.Max(factRates)
		vals["allocs_per_fact"] = float64(total.mallocs) / float64(total.derived)
		vals["alloc_bytes_per_fact"] = float64(total.bytes) / float64(total.derived)
		lat := sortedCopy(seconds(total.latencies))
		logSummary(cfg.log, "request latency", "s", lat)
		fmt.Fprintf(cfg.log, "  p95 %.6f s  p99 %.6f s  max %.6f s  (%d clients, closed loop, %d slices)\n",
			quantile(lat, 0.95), quantile(lat, 0.99), lat[len(lat)-1], cfg.w.clients, serveSlices)
		logSummary(cfg.log, "slice p50 latency", "s", p50s)
		logSummary(cfg.log, "slice throughput", "1/s", rates)
		if rs, err = p.runRounds(ctx, window*3/10, want, tl); err != nil {
			return nil, err
		}
	} else {
		if rs, err = p.runRounds(ctx, window, want, tl); err != nil {
			return nil, err
		}
		// One client in a closed loop: throughput is the reciprocal of the
		// task time.
		vals["reason_s"] = best(rs.task)
		vals["tasks_per_s"] = 1 / best(rs.task)
		vals["facts_per_s"] = float64(rs.derived) / best(rs.task)
		vals["allocs_per_fact"] = median(rs.mallocs)
		vals["alloc_bytes_per_fact"] = median(rs.bytes)
		logSummary(cfg.log, "task", "s", seconds(rs.task))
	}
	vals["compile_s"] = best(rs.compile)
	vals["first_answer_s"] = best(rs.first)
	vals["retained_bytes_per_fact"] = median(rs.retained)
	logSummary(cfg.log, "first answer ("+p.first+")", "s", seconds(rs.first))
	logSummary(cfg.log, "parse+compile", "s", seconds(rs.compile))
	logSummary(cfg.log, "set-up", "s", seconds(setups))

	// Read the high-water mark before the reference engines run: their
	// memory is the benchmark's, not the reasoner's.
	if vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	return finish(ctx, cfg, p, answers, tl, report(endToEnd, vals)), nil
}

// finish checks the answers of the checked pass and closes the run's
// account. A failed output check condemns every task of the run: they all
// returned the answer that was checked.
func finish(ctx context.Context, cfg runConfig, p *prepared, answers []*answer, tl *tally, metrics map[string]metricValue) *runResult {
	errs := verifyAnswers(ctx, cfg, p, answers)
	for _, e := range errs {
		fmt.Fprintln(cfg.log, "CHECK FAILED:", e)
	}
	if tl.firstErr != nil {
		fmt.Fprintln(cfg.log, "TASK FAILED:", tl.firstErr)
	}
	failed := tl.failed
	if len(errs) > 0 {
		failed = tl.attempted
	}
	fmt.Fprintf(cfg.log, "%s seed %d: derived %d facts per task, %d tasks, %d failed, GOMAXPROCS %d\n",
		cfg.w.name, cfg.seed, answers[0].derived, tl.attempted, failed, runtime.GOMAXPROCS(0))
	return &runResult{Correct: failed == 0, Attempted: tl.attempted, Failed: failed, Metrics: metrics}
}

func logSummary(w io.Writer, what, unit string, xs []float64) {
	s := summarize(xs)
	fmt.Fprintf(w, "  %-28s median %.6f %s  q1 %.6f  q3 %.6f  min %.6f  n %d\n",
		what, s.Median, unit, s.Q1, s.Q3, s.Min, s.N)
}
