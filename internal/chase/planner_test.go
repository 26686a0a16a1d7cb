package chase

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

func runWithOpts(t *testing.T, src string, facts []ast.Fact, opts Options) *Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(context.Background(), prog, facts, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestPlannerByteIdentical: the cost-based planner only reorders candidate
// enumeration — admission stays canonical — so for every scenario the
// final database is byte-identical with the planner on or off, serial or
// parallel.
func TestPlannerByteIdentical(t *testing.T) {
	for _, sc := range parallelScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			base := dbBytes(runWithOpts(t, sc.src, sc.facts, Options{Parallelism: 1, DisablePlanner: true}))
			for _, opts := range []Options{
				{Parallelism: 1},
				{Parallelism: 4},
			} {
				if got := dbBytes(runWithOpts(t, sc.src, sc.facts, opts)); got != base {
					t.Errorf("planner on (workers=%d) diverges from planner off (%d vs %d bytes)",
						opts.Parallelism, len(got), len(base))
				}
			}
		})
	}
}

// TestWorstPlanByteIdentical drives the same scenarios with the planner
// forced to pick the LARGEST estimated intermediate at every step: the
// adversarially worst join order must still produce byte-identical
// output, which is the strongest form of the plan-independence contract.
func TestWorstPlanByteIdentical(t *testing.T) {
	for _, sc := range parallelScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			base := dbBytes(runWithOpts(t, sc.src, sc.facts, Options{Parallelism: 1, DisablePlanner: true}))
			prog := parser.MustParse(sc.src)
			c, err := Compile(prog, Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			e := c.NewEngine()
			e.pl.Worst = true
			res, err := e.Run(context.Background(), sc.facts)
			if err != nil {
				t.Fatal(err)
			}
			if got := dbBytes(res); got != base {
				t.Errorf("worst-case plan diverges from planner off (%d vs %d bytes)",
					len(got), len(base))
			}
		})
	}
}

// TestPlannerSkewOrder: on a tiny × huge join the planner matches the
// tiny side first. The static schedule ties wide and narrow (both probe
// on the bound X), so only cost-based ordering gets this right.
func TestPlannerSkewOrder(t *testing.T) {
	src := `src(X), wide(X,Y), narrow(X,Z) -> out(Y,Z).`
	var facts []ast.Fact
	for i := 0; i < 5; i++ {
		facts = append(facts, ast.NewFact("src", term.Int(int64(i))))
		facts = append(facts, ast.NewFact("narrow", term.Int(int64(i)), term.Int(int64(100+i))))
	}
	for j := 0; j < 2000; j++ {
		facts = append(facts, ast.NewFact("wide", term.Int(int64(j%5)), term.Int(int64(j))))
	}
	prog := parser.MustParse(src)
	c, err := Compile(prog, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := c.NewEngine()
	if _, err := e.Run(context.Background(), facts); err != nil {
		t.Fatal(err)
	}
	cr := e.c.Rules[0]
	// Pos: src=0 wide=1 narrow=2; pinned on the src delta the planner
	// must join narrow (est ~1) before wide (est ~400).
	p := e.pl.PlanFor(cr, 0)
	if len(p.Order) != 2 || p.Order[0] != 2 {
		t.Fatalf("skew order: %v (ests %v, rows %v), want narrow (atom 2) first",
			p.Order, p.Est, p.Rows)
	}
}

// TestCSESharedBodies: rules sharing a positive body are matched through
// one shared cursor per delta; the shared-firing counter proves the
// sharing happened and the bytes prove it did not change the result.
func TestCSESharedBodies(t *testing.T) {
	src := `
		e(X,Y), e(Y,Z) -> grand(X,Z).
		e(X,Y), e(Y,Z) -> sibling(Z,X).
		e(X,Y), e(Y,Z), X != Z -> strict(X,Z).
	`
	var facts []ast.Fact
	for i := 0; i < 30; i++ {
		facts = append(facts, ast.NewFact("e", term.Int(int64(i)), term.Int(int64(i+1))))
	}
	base := dbBytes(runWithOpts(t, src, facts, Options{Parallelism: 1, DisablePlanner: true}))
	prog := parser.MustParse(src)
	for _, workers := range []int{1, 4} {
		c, err := Compile(prog, Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.groups) == 0 {
			t.Fatal("no CSE groups built for identical bodies")
		}
		e := c.NewEngine()
		res, err := e.Run(context.Background(), facts)
		if err != nil {
			t.Fatal(err)
		}
		if got := dbBytes(res); got != base {
			t.Errorf("workers=%d: CSE run diverges from planner-off run", workers)
		}
		if _, _, shared := e.PlannerStats(); shared == 0 {
			t.Errorf("workers=%d: no shared firings recorded", workers)
		}
	}
}

// TestFrozenStatsWorkerCountIndependent: batch partitioning is
// worker-count-independent, so the statistics snapshots workers plan
// against are too — same generations, same live counts, whatever the
// parallelism. Run under -race this also exercises concurrent frozen-stat
// reads against serial admission writes.
func TestFrozenStatsWorkerCountIndependent(t *testing.T) {
	sc := parallelScenarios(t)[3] // allpsc: aggregates, replacements, recursion
	res1 := runParallel(t, sc.src, sc.facts, 1)
	res8 := runParallel(t, sc.src, sc.facts, 8)
	for _, pred := range res1.DB.Predicates() {
		r1, r8 := res1.DB.Lookup(pred), res8.DB.Lookup(pred)
		if r8 == nil {
			t.Fatalf("%s missing at workers=8", pred)
		}
		s1, s8 := r1.FrozenStats(), r8.FrozenStats()
		if s1.Gen != s8.Gen || s1.Live != s8.Live {
			t.Errorf("%s: frozen stats diverge: gen %d/%d live %d/%d",
				pred, s1.Gen, s8.Gen, s1.Live, s8.Live)
		}
	}
}
