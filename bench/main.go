// Command vadabench is this repository's benchmark: seven named workloads,
// end-to-end metrics measured with tracing off, per-layer metrics from a
// separate traced run, and an output check on every run. BENCHMARK.json at
// the repository root names the command, the workloads and the metrics;
// README.md in this directory defines them.
//
// One run, as the benchmark driver issues it:
//
//	vadabench -workload lubm-q9 -seed 1 -seconds 10 -trace 0
//
// prints a human-readable account on standard error and one JSON object on
// the last line of standard output. Other modes:
//
//	vadabench suite [-runs 10] [-o file]   every workload, several seeds, spreads
//	vadabench compare A.json B.json        two suite files, verdict per metric
//	vadabench manifest                     print BENCHMARK.json
//	vadabench expected                     print expected.json for seed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
)

// serveClients is the closed-loop client count of serve-small, and the
// processor count every run is pinned to, so that a host with more cores
// does not silently measure a different configuration.
func serveClients() int { return min(runtime.NumCPU(), 4) }

func main() {
	runtime.GOMAXPROCS(serveClients())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "suite":
		err = suiteMain(ctx, os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "manifest":
		err = manifestMain()
	case len(os.Args) > 1 && os.Args[1] == "expected":
		err = expectedMain(ctx)
	default:
		err = runMain(ctx, os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vadabench:", err)
		os.Exit(1)
	}
}

// runMain is one run of one workload (or, for a person at a terminal,
// of several in turn).
func runMain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("vadabench", flag.ContinueOnError)
	names := fs.String("workload", "", "workload name, or several separated by commas (default: all)")
	seed := fs.Int64("seed", expectedSeed, "seed every generated input derives from")
	secs := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	szName := fs.String("size", "default", "input size: default or tiny")
	out := fs.String("out", "bench/out", "directory for generated inputs and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz, err := parseSize(*szName)
	if err != nil {
		return err
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	if *secs <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	ok := true
	for _, w := range ws {
		cfg := runConfig{w: w, seed: *seed, seconds: *secs, sz: sz, outDir: *out, log: os.Stderr}
		run := runUntraced
		if *trace != 0 {
			run = runTraced
		}
		res, err := run(ctx, cfg)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		return fmt.Errorf("output check failed")
	}
	return nil
}

func parseSize(s string) (size, error) {
	switch s {
	case "default":
		return sizeDefault, nil
	case "tiny":
		return sizeTiny, nil
	}
	return 0, fmt.Errorf("unknown -size %q (default, tiny)", s)
}

func selectWorkloads(names string) ([]*workload, error) {
	if names == "" {
		return workloads(), nil
	}
	var ws []*workload
	for _, n := range strings.Split(names, ",") {
		w := findWorkload(strings.TrimSpace(n))
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	return ws, nil
}
