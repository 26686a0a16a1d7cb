// Package experiments implements the paper's full experimental evaluation
// (Sec. 6): one function per table/figure, each returning the rows the
// paper plots. The root bench_test.go and cmd/vadabench are thin shells
// around this package. Scale factors shrink the paper's instance sizes so
// the suite runs on laptop budgets while preserving the shapes (who wins,
// growth class, crossovers).
package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/vadalog"
)

// Row is one measured configuration.
type Row struct {
	Scenario string
	System   string
	Param    string  // the x-axis value (persons, companies, facts, ...)
	Seconds  float64 // elapsed reasoning time
	Output   int     // output facts
	Derived  int     // total admitted facts
	Note     string  // DNF reasons etc.
}

// Table is one reproduced figure/table.
type Table struct {
	ID    string // e.g. "Fig5a"
	Title string
	Rows  []Row
}

// String renders the table in the aligned text format vadabench prints.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "%-22s %-14s %-12s %10s %10s %10s  %s\n",
		"scenario", "system", "param", "seconds", "output", "derived", "note")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-22s %-14s %-12s %10.3f %10d %10d  %s\n",
			r.Scenario, r.System, r.Param, r.Seconds, r.Output, r.Derived, r.Note)
	}
	return sb.String()
}

// runResult is the outcome of one reasoning run.
type runResult struct {
	seconds time.Duration
	output  int
	derived int
	note    string
}

// run executes src over facts with opts, counting the facts of outPred.
// Budget overruns are reported as DNF rows instead of errors (that is the
// expected outcome for some baselines, cf. Sec. 6.5).
func run(src string, facts []ast.Fact, outPred string, opts *vadalog.Options) (runResult, error) {
	prog, err := vadalog.Parse(src)
	if err != nil {
		return runResult{}, err
	}
	r, err := vadalog.Compile(prog, opts)
	if err != nil {
		return runResult{}, err
	}
	sess := r.NewSession()
	sess.Load(facts...)
	start := time.Now()
	runErr := sess.Run()
	elapsed := time.Since(start)
	res := runResult{seconds: elapsed, derived: sess.Derivations()}
	if runErr != nil {
		if errors.Is(runErr, vadalog.ErrBudget) {
			res.note = "DNF (budget)"
			return res, nil
		}
		return res, runErr
	}
	if outPred != "" {
		res.output = len(sess.Output(outPred))
	}
	return res, nil
}

// addRow measures one configuration and appends it.
func addRow(t *Table, scenario, system, param, src string, facts []ast.Fact, outPred string, opts *vadalog.Options) error {
	r, err := run(src, facts, outPred, opts)
	if err != nil {
		return fmt.Errorf("%s/%s/%s: %w", scenario, system, param, err)
	}
	t.Rows = append(t.Rows, Row{
		Scenario: scenario, System: system, Param: param,
		Seconds: r.seconds.Seconds(), Output: r.output, Derived: r.derived, Note: r.note,
	})
	return nil
}

// scalePoints shrinks a series of paper-scale x-axis values by factor,
// keeping at least lo.
func scalePoints(points []int, factor float64, lo int) []int {
	out := make([]int, len(points))
	for i, p := range points {
		v := int(float64(p) * factor)
		if v < lo {
			v = lo
		}
		out[i] = v
	}
	return out
}
