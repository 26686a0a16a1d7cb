package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// suiteRun is one child run as a suite file records it.
type suiteRun struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// suiteFile is what `vadabench suite` writes and `vadabench compare` reads.
type suiteFile struct {
	Host       map[string]string `json:"host"`
	RunSeconds float64           `json:"run_seconds"`
	Runs       []suiteRun        `json:"runs"`
	// Claim is always null: the benchmark records, it does not claim.
	Claim *string `json:"claim"`
}

func hostFacts() map[string]string {
	h := map[string]string{
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

// suiteMain runs every selected workload once per pass, each run in a
// child process of its own (so the resident-set peak is per run), children
// strictly one at a time. Pass k uses seed seed0+k and visits every
// workload before pass k+1 starts, so a slow minute on a shared host is
// spread over all workloads instead of landing on one.
func suiteMain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("vadabench suite", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "passes over the workloads, each with its own seed")
	traced := fs.Int("traced", 2, "how many of the passes also make a traced run")
	seed0 := fs.Int64("seed0", expectedSeed, "seed of the first pass")
	secs := fs.Float64("seconds", runSeconds, "how long one run measures")
	names := fs.String("workload", "", "workload names separated by commas (default: all)")
	szName := fs.String("size", "default", "input size: default or tiny")
	outDir := fs.String("out", "bench/out", "directory for inputs, traces and the suite file")
	file := fs.String("o", "", "suite file to write (default <out>/suite.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sf := suiteFile{Host: hostFacts(), RunSeconds: *secs}
	for pass := 0; pass < *runs; pass++ {
		for _, w := range ws {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && pass >= *traced {
					continue
				}
				seed := *seed0 + int64(pass)
				t := time.Now()
				run, err := childRun(ctx, exe, w.name, seed, *secs, trace, *szName, *outDir)
				if err != nil {
					return fmt.Errorf("%s seed %d trace %d: %w", w.name, seed, trace, err)
				}
				fmt.Fprintf(os.Stderr, "pass %d  %-14s seed %d trace %d  %5.1f s  attempted %d failed %d\n",
					pass+1, w.name, seed, trace, time.Since(t).Seconds(), run.Attempted, run.Failed)
				sf.Runs = append(sf.Runs, *run)
			}
		}
	}
	data, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	if *file == "" {
		*file = *outDir + "/suite.json"
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(*file, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printSpreads(os.Stdout, &sf)
	fmt.Fprintln(os.Stderr, "suite file:", *file)
	for _, r := range sf.Runs {
		if !r.Correct {
			return fmt.Errorf("%s seed %d: output check failed", r.Workload, r.Seed)
		}
	}
	return nil
}

// childRun executes one run in a child process and decodes the last line
// it printed.
func childRun(ctx context.Context, exe, workload string, seed int64, secs float64, trace int, sz, outDir string) (*suiteRun, error) {
	cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace), "-size", sz, "-out", outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%w\n%s", runErr, stderr.String())
		}
		return nil, fmt.Errorf("decode result: %w", err)
	}
	run := &suiteRun{Workload: workload, Seed: seed, Trace: trace, Correct: res.Correct,
		Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for name, v := range res.Metrics {
		run.Metrics[name] = v.Value
	}
	return run, nil
}

// values collects one metric of one workload over the runs of a suite
// file, in run order.
func (sf *suiteFile) values(workload, metric string, trace int) []float64 {
	var xs []float64
	for _, r := range sf.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			xs = append(xs, v)
		}
	}
	return xs
}

func (sf *suiteFile) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range sf.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// printSpreads reports, per workload and end-to-end metric, the median and
// quartiles over the runs and the run-to-run spread (quartile distance as a
// share of the median) next to the metric's bound: "steady" below a third
// of the bound, "wide" below the bound, "UNSTEADY" at or above it.
func printSpreads(w io.Writer, sf *suiteFile) {
	for _, name := range sf.workloadNames() {
		fmt.Fprintf(w, "%s\n", name)
		for _, d := range endToEnd {
			xs := sf.values(name, d.Name, 0)
			if len(xs) < 2 {
				continue
			}
			q1, q3 := exclusiveQuartiles(xs)
			sp := spread(xs)
			verdict := "steady"
			switch {
			case d.Name == "setup_s":
				verdict = "not gated"
			case sp >= d.Bound:
				verdict = "UNSTEADY"
			case sp >= d.Bound/3:
				verdict = "wide"
			}
			fmt.Fprintf(w, "  %-24s median %-12.6g q1 %-12.6g q3 %-12.6g %-6s spread %.4f  bound %.2f  %s  (n %d)\n",
				d.Name, median(xs), q1, q3, d.Unit, sp, d.Bound, verdict, len(xs))
		}
	}
}

// Verdicts of compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a metric at a base commit and at a change.
// worse is the share of the base median by which the change's median is
// worse (negative when it is better). The pair is unresolved when either
// side's run-to-run spread is wider than the bound (setup_s excepted, as the
// benchmark driver excepts it: only its medians are held to the bound);
// regressed when worse exceeds the bound; improved when the change is
// better by more than either side's own spread; ok otherwise.
func judge(d metricDef, base, change []float64) (worse float64, verdict string) {
	mb, mc := median(base), median(change)
	worse = (mc - mb) / mb
	if d.Better == higher {
		worse = -worse
	}
	widest := math.NaN()
	if len(base) >= 2 && len(change) >= 2 {
		widest = max(spread(base), spread(change))
	}
	switch {
	case math.IsNaN(widest) || (widest > d.Bound && d.Name != "setup_s"):
		verdict = verdictUnresolved
	case worse > d.Bound:
		verdict = verdictRegressed
	case -worse > widest:
		verdict = verdictImproved
	default:
		verdict = verdictOK
	}
	return worse, verdict
}

// compareMain prints, per workload and metric, both sides' medians and
// quartiles and the ratio with its base; end-to-end metrics get a verdict.
// It fails when any pairing regressed or is unresolved.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: vadabench compare BASE.json CHANGE.json")
	}
	var files [2]suiteFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	base, change := &files[0], &files[1]
	bad := 0
	for _, name := range base.workloadNames() {
		fmt.Printf("%s\n", name)
		for _, d := range endToEnd {
			b, c := base.values(name, d.Name, 0), change.values(name, d.Name, 0)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			worse, verdict := judge(d, b, c)
			if verdict == verdictRegressed || verdict == verdictUnresolved {
				bad++
			}
			sb, sc := summarize(b), summarize(c)
			fmt.Printf("  %-24s base %.6g [%.6g, %.6g] n %d   change %.6g [%.6g, %.6g] n %d   ratio %.4f of base %.6g %s   worse by %+.4f (bound %.2f)   %s\n",
				d.Name, sb.Median, sb.Q1, sb.Q3, sb.N, sc.Median, sc.Q1, sc.Q3, sc.N, sc.Median/sb.Median, sb.Median, d.Unit, worse, d.Bound, verdict)
		}
		for _, d := range perLayer {
			b, c := base.values(name, d.Name, 1), change.values(name, d.Name, 1)
			if len(b) == 0 || len(c) == 0 || median(b) == 0 {
				continue
			}
			fmt.Printf("  %-24s base %.6g   change %.6g   ratio %.4f of base %.6g %s\n",
				d.Name, median(b), median(c), median(c)/median(b), median(b), d.Unit)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end pairings regressed or unresolved", bad)
	}
	return nil
}
