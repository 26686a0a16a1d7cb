// Package experiments implements the paper's full experimental evaluation
// (Sec. 6): one function per table/figure, each returning the rows the
// paper plots, listed once in Figures. Every figure's scenarios, axis,
// sizes and compared systems are written here and nowhere else: the root
// BenchmarkFigures and cmd/vadabench are thin loops over Figures. Scale
// factors shrink the paper's instance sizes so the suite runs on laptop
// budgets while preserving the shapes (who wins, growth class, crossovers).
package experiments

import (
	"errors"
	"fmt"
	"slices"
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

// system is one configuration a figure compares.
type system struct {
	name string
	opts *vadalog.Options
}

// chaseSystems are the Vadalog strategy and the chase-system baselines
// of Fig. 5(b) and 5(g)-(i). budget caps the baselines, which need not
// terminate on warded programs.
func chaseSystems(budget int) []system {
	return []system{
		{"vadalog", nil},
		{"restricted", &vadalog.Options{Policy: vadalog.PolicyRestricted, MaxDerivations: budget}},
		{"skolem", &vadalog.Options{Policy: vadalog.PolicySkolem, MaxDerivations: budget}},
	}
}

// query is one end-to-end reasoning task: a full program source and the
// predicate whose facts answer it.
type query struct{ src, out string }

// mix makes one task per query of a scenario's query mix: program plus
// query i, answering the predicate out followed by i+first.
func mix(program string, queries []string, out string, first int) []query {
	qs := make([]query, len(queries))
	for i, q := range queries {
		qs[i] = query{program + q, fmt.Sprint(out, i+first)}
	}
	return qs
}

// addRows measures each system on the query tasks over facts and appends
// one row per system. Each task is a separate session (as in the paper);
// a row holds the mean seconds, the summed outputs, the last session's
// derived facts and the DNF note of any task that hit its budget.
func addRows(t *Table, scenario, param string, systems []system, qs []query, facts []ast.Fact) error {
	for _, sys := range systems {
		row := Row{Scenario: scenario, System: sys.name, Param: param}
		for i, q := range qs {
			r, err := run(q.src, facts, q.out, sys.opts)
			if err != nil {
				return fmt.Errorf("%s/%s/%s q%d: %w", scenario, sys.name, param, i, err)
			}
			row.Seconds += r.seconds.Seconds()
			row.Output += r.output
			row.Derived = r.derived
			if r.note != "" {
				row.Note = r.note
			}
		}
		row.Seconds /= float64(len(qs))
		t.Rows = append(t.Rows, row)
	}
	return nil
}

// addRow measures one system on one task and appends its row.
func addRow(t *Table, scenario, sys, param, src string, facts []ast.Fact, outPred string, opts *vadalog.Options) error {
	return addRows(t, scenario, param, []system{{sys, opts}}, []query{{src, outPred}}, facts)
}

// scaled shrinks a paper-scale size by factor, keeping at least lo.
func scaled(n int, factor float64, lo int) int {
	return max(int(float64(n)*factor), lo)
}

// scalePoints shrinks a series of paper-scale x-axis values by factor,
// keeping at least lo, in order, and drops a point that scales to one
// already kept: at small factors the floor folds several points into one
// configuration, which would only be measured again.
func scalePoints(points []int, factor float64, lo int) []int {
	var out []int
	for _, p := range points {
		if n := scaled(p, factor, lo); !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}
