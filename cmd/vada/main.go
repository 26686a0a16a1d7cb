// Command vada is the Vadalog command-line interface: it checks and runs
// Vadalog programs end to end (storage to storage via the @bind/@qbind
// record managers — csv, tsv, jsonl, mem and any registered driver — or
// printing outputs to stdout).
//
// Usage:
//
//	vada check program.vada           static wardedness analysis
//	vada vet [-strict] [-q] [-json] targets
//	                                  positioned lint diagnostics over
//	                                  .vada files, dirs or dir/... trees
//	                                  (file:line:col: CODE: message, or
//	                                  JSON Lines with -json)
//	vada run [flags] program.vada     run the reasoning task
//
// Run flags:
//
//	-engine pipeline|chase     execution engine (default pipeline)
//	-policy full|nosummary|trivial|restricted|skolem
//	-max N                     derivation budget
//	-timeout D                 wall-clock bound (e.g. 30s); on expiry the
//	                           partial result derived so far is printed
//	                           and vada exits 4
//	-parallel N                chase match workers (0 = GOMAXPROCS,
//	                           1 = single-threaded; results are identical)
//	-noplan                    disable the cost-based join planner
//	                           (static schedules; results are identical)
//	-explain                   after the run, print the access plan with
//	                           the chosen join orders and their estimates
//	                           to stderr
//	-phases                    after the run, print the match/admit
//	                           wall-time split to stderr
//	-facts pred=file.csv       extra CSV input (repeatable)
//	-bind pred=driver:target   override (or add) a predicate's binding
//	                           without editing the program (repeatable),
//	                           e.g. -bind own=tsv:/data/own.tsv
//	-print pred                print a predicate's facts (repeatable;
//	                           default: all @output predicates)
//
// Run exit codes (also in vada run -h): 0 success; 1 error (parse,
// compile, inconsistency, rule failure); 2 usage; 3 cancelled
// (interrupt); 4 resource bound hit (derivation budget or -timeout;
// partial result printed); 5 transient source failure persisting after
// the configured retries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	iofs "io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/vadalog"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "check":
		cmdCheck(os.Args[2:])
	case "vet":
		cmdVet(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "plan":
		cmdPlan(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vada check <program> | vada vet [-strict] [-json] <files/dirs...> | vada plan <program> | vada run [flags] <program>")
	os.Exit(2)
}

// cmdVet lints Vadalog programs and prints positioned diagnostics in the
// go-vet-style "file:line:col: CODE: message" form, or with -json as
// JSON Lines (one object per diagnostic with the stable fields file,
// line, col, code, severity, message, related). Arguments are .vada
// files, directories, or go-style "dir/..." patterns (searched
// recursively for *.vada). Files that fail to parse surface as E001
// errors. Exit status: 0 when no diagnostic reaches Error severity
// (Warning with -strict), 1 otherwise, 2 on usage or I/O errors.
func cmdVet(args []string) {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	strict := fs.Bool("strict", false, "fail on warnings, not just errors")
	quiet := fs.Bool("q", false, "suppress info diagnostics")
	asJSON := fs.Bool("json", false, "print diagnostics as JSON Lines")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	files, err := expandVetTargets(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "vada: vet:", err)
		os.Exit(2)
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "vada: vet: no .vada files found")
		os.Exit(2)
	}
	failSev := vadalog.SeverityError
	if *strict {
		failSev = vadalog.SeverityWarning
	}
	exit := 0
	for _, file := range files {
		var diags []lint.Diagnostic
		prog, err := vadalog.ParseFile(file)
		if err != nil {
			diags = []lint.Diagnostic{syntaxDiagnostic(file, err)}
		} else {
			diags = vadalog.Lint(prog, file)
		}
		for _, d := range diags {
			if *quiet && d.Severity == vadalog.SeverityInfo {
				continue
			}
			if *asJSON {
				if err := lint.WriteJSON(os.Stdout, []lint.Diagnostic{d}); err != nil {
					fmt.Fprintln(os.Stderr, "vada: vet:", err)
					os.Exit(2)
				}
			} else {
				fmt.Println(d)
			}
			if d.Severity >= failSev {
				exit = 1
			}
		}
	}
	os.Exit(exit)
}

// syntaxDiagnostic converts a parse failure into the E001 diagnostic, so
// unparsable files flow through the same (JSON) rendering as lint
// findings. Parser errors carry their position; other errors (I/O) are
// attributed to the file at 0:0.
func syntaxDiagnostic(file string, err error) lint.Diagnostic {
	d := lint.Diagnostic{
		Code:     "E001",
		Severity: lint.Error,
		Pos:      lint.Pos{File: file},
		Message:  err.Error(),
	}
	var pe *parser.Error
	if errors.As(err, &pe) {
		d.Pos = lint.Pos{File: file, Line: pe.Line, Col: pe.Col}
		d.Message = pe.Msg
	}
	return d
}

// expandVetTargets resolves vet arguments to .vada files: files are taken
// as-is, directories are searched (recursively for go-style "/..."
// suffixes) for *.vada.
func expandVetTargets(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		recursive := false
		if strings.HasSuffix(arg, "...") {
			recursive = true
			arg = strings.TrimSuffix(arg, "...")
			arg = strings.TrimSuffix(arg, string(filepath.Separator))
			if arg == "" {
				arg = "."
			}
		}
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		if recursive {
			err = filepath.WalkDir(arg, func(path string, d iofs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() && filepath.Ext(path) == ".vada" {
					files = append(files, path)
				}
				return nil
			})
		} else {
			var entries []iofs.DirEntry
			entries, err = os.ReadDir(arg)
			for _, e := range entries {
				if !e.IsDir() && filepath.Ext(e.Name()) == ".vada" {
					files = append(files, filepath.Join(arg, e.Name()))
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	prog := loadProgram(fs.Arg(0))
	reasoner, err := vadalog.Compile(prog, nil)
	if err != nil {
		fatal(err)
	}
	plan, err := reasoner.Plan()
	if err != nil {
		fatal(err)
	}
	fmt.Print(plan)
}

func loadProgram(path string) *vadalog.Program {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := vadalog.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	return prog
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vada:", err)
	os.Exit(1)
}

func cmdCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	prog := loadProgram(fs.Arg(0))
	rep := vadalog.Check(prog)
	fmt.Print(rep)
	if !rep.Warded {
		os.Exit(1)
	}
}

// overrideBinding rewrites (or adds) the program binding of one
// predicate from a "pred=driver:target" flag value, so a program can be
// pointed at a different file, format or driver from the command line.
// A @qbind'ed predicate keeps its query.
func overrideBinding(prog *vadalog.Program, spec string) error {
	pred, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("bad -bind %q (want pred=driver:target)", spec)
	}
	driver, target, ok := strings.Cut(rest, ":")
	if !ok || driver == "" || target == "" {
		return fmt.Errorf("bad -bind %q (want pred=driver:target)", spec)
	}
	for i := range prog.Bindings {
		if prog.Bindings[i].Pred == pred {
			prog.Bindings[i].Driver = driver
			prog.Bindings[i].Target = target
			return nil
		}
	}
	prog.Bindings = append(prog.Bindings, ast.Binding{Pred: pred, Driver: driver, Target: target})
	return nil
}

// exitRunError maps a RunContext failure to the documented exit codes:
// a PartialResult (budget or -timeout) prints the facts derived so far
// and exits 4, interrupt exits 3, a transient source failure that
// outlived its retries exits 5, and anything else is a plain error (1).
func exitRunError(err error, preds []string) {
	var pr *vadalog.PartialResult
	switch {
	case errors.As(err, &pr):
		for _, pred := range preds {
			for _, f := range pr.Output(pred) {
				fmt.Println(f)
			}
		}
		fmt.Fprintf(os.Stderr, "vada: partial result: %d facts derived, quiesced=%v: %v\n",
			pr.Derivations(), pr.Quiesced(), pr.Reason)
		os.Exit(4)
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "vada: cancelled:", err)
		os.Exit(3)
	case vadalog.IsTransient(err):
		fmt.Fprintln(os.Stderr, "vada: transient source failure persisted after retries:", err)
		os.Exit(5)
	default:
		fatal(err)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	engine := fs.String("engine", "pipeline", "pipeline|chase")
	policy := fs.String("policy", "full", "full|nosummary|trivial|restricted|skolem")
	maxDer := fs.Int("max", 0, "derivation budget (0 = default)")
	timeout := fs.Duration("timeout", 0, "wall-clock bound; on expiry print the partial result and exit 4 (0 = none)")
	parallel := fs.Int("parallel", 0, "chase match workers (0 = GOMAXPROCS, 1 = single-threaded)")
	noplan := fs.Bool("noplan", false, "disable the cost-based join planner")
	explain := fs.Bool("explain", false, "print the access plan with chosen join orders after the run")
	phases := fs.Bool("phases", false, "print the match/admit wall-time split after the run")
	var extraFacts, printPreds, bindOverrides multiFlag
	fs.Var(&extraFacts, "facts", "pred=file.csv extra input (repeatable)")
	fs.Var(&printPreds, "print", "predicate to print (repeatable)")
	fs.Var(&bindOverrides, "bind", "pred=driver:target binding override (repeatable)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: vada run [flags] <program.vada>")
		fs.PrintDefaults()
		fmt.Fprint(fs.Output(), `
exit codes:
  0  success
  1  error (parse, compile, inconsistency, rule failure)
  2  usage
  3  cancelled (interrupt signal)
  4  resource bound hit (-max derivation budget or -timeout);
     the partial result derived so far is printed first
  5  transient source failure persisting after the configured retries
`)
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	prog := loadProgram(fs.Arg(0))
	for _, spec := range bindOverrides {
		if err := overrideBinding(prog, spec); err != nil {
			fatal(err)
		}
	}

	opts := &vadalog.Options{MaxDerivations: *maxDer, Parallelism: *parallel,
		PhaseTiming: *phases, DisablePlanner: *noplan}
	switch *engine {
	case "pipeline":
		opts.Engine = vadalog.EnginePipeline
	case "chase":
		opts.Engine = vadalog.EngineChase
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	switch *policy {
	case "full":
		opts.Policy = vadalog.PolicyFull
	case "nosummary":
		opts.Policy = vadalog.PolicyNoSummary
	case "trivial":
		opts.Policy = vadalog.PolicyTrivialIso
	case "restricted":
		opts.Policy = vadalog.PolicyRestricted
	case "skolem":
		opts.Policy = vadalog.PolicySkolem
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	// Compile once, then run: the compiled Reasoner is the reusable
	// artifact (a server would keep it and call Query per request).
	reasoner, err := vadalog.Compile(prog, opts)
	if err != nil {
		fatal(err)
	}
	var facts []vadalog.Fact
	for _, spec := range extraFacts {
		pred, file, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -facts %q (want pred=file.csv)", spec))
		}
		fs, err := vadalog.ReadCSV(pred, file)
		if err != nil {
			fatal(err)
		}
		facts = append(facts, fs...)
	}
	preds := []string(printPreds)
	if len(preds) == 0 {
		for p := range prog.Outputs {
			preds = append(preds, p)
		}
	}
	sort.Strings(preds)
	// Ctrl-C cancels the reasoning fixpoint instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Drive a session directly (rather than Query) so -explain can render
	// the plans against the statistics the run actually converged on.
	sess := reasoner.NewSession()
	sess.Load(facts...)
	if err := sess.RunContext(ctx); err != nil {
		exitRunError(err, preds)
	}
	res, err := sess.Result()
	if err != nil {
		fatal(err)
	}
	if *explain {
		fmt.Fprint(os.Stderr, sess.Explain())
	}
	if *phases {
		match, _, admit := sess.PhaseStats()
		fmt.Fprintf(os.Stderr, "vada: phases: match %v, admit %v\n", match, admit)
	}

	for _, pred := range preds {
		for _, f := range res.Output(pred) {
			fmt.Println(f)
		}
	}
	fmt.Fprintf(os.Stderr, "vada: %d facts derived\n", res.Derivations())
	if st, ok := res.StrategyStats(); ok {
		fmt.Fprintf(os.Stderr, "vada: strategy: %d checks, %d iso, %d stop-cut, %d patterns\n",
			st.Checked, st.IsoChecks, st.BeyondStop, st.Patterns)
	}
}
