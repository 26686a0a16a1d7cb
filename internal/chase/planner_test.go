package chase

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen/iwarded"
	"repro/internal/parser"
	"repro/internal/term"
)

// TestPlannerByteIdentical: the cost-based planner only reorders candidate
// enumeration — admission stays canonical — so for every scenario the
// final database is byte-identical with the planner on or off.
func TestPlannerByteIdentical(t *testing.T) {
	for _, sc := range scenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			base := dbBytes(runWithOpts(t, sc.src, sc.facts, Options{DisablePlanner: true}))
			if got := dbBytes(runWithOpts(t, sc.src, sc.facts, Options{})); got != base {
				t.Errorf("planner on diverges from planner off (%d vs %d bytes)", len(got), len(base))
			}
		})
	}
}

// TestWorstPlanByteIdentical drives the same scenarios with the planner
// forced to pick the LARGEST estimated intermediate at every step: the
// adversarially worst join order must still produce byte-identical
// output, which is the strongest form of the plan-independence contract.
func TestWorstPlanByteIdentical(t *testing.T) {
	for _, sc := range scenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			base := dbBytes(runWithOpts(t, sc.src, sc.facts, Options{DisablePlanner: true}))
			prog := parser.MustParse(sc.src)
			c, err := Compile(prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			e := c.NewEngine()
			e.Planner().Worst = true
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
	c, err := Compile(prog, Options{})
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
	p := e.Planner().PlanFor(cr, 0)
	if len(p.Order) != 2 || p.Order[0] != 2 {
		t.Fatalf("skew order: %v (ests %v, rows %v), want narrow (atom 2) first",
			p.Order, p.Est, p.Rows)
	}
}

// cseScenarios are programs whose rules share positive bodies: three
// rules of one stratum over one body, and groups whose members span two
// strata, with an ungrouped firing ahead of them in the upper stratum's
// firing list so that its leaders sit at other offsets than the lower one's.
func cseScenarios() []struct {
	name, src string
	facts     []ast.Fact
} {
	var chain, nodes []ast.Fact
	for i := 0; i < 30; i++ {
		chain = append(chain, ast.NewFact("e", term.Int(int64(i)), term.Int(int64(i+1))))
		nodes = append(nodes, ast.NewFact("n", term.Int(int64(i))))
	}
	return []struct {
		name, src string
		facts     []ast.Fact
	}{
		{"one stratum", `
			e(X,Y), e(Y,Z) -> grand(X,Z).
			e(X,Y), e(Y,Z) -> sibling(Z,X).
			e(X,Y), e(Y,Z), X != Z -> strict(X,Z).
		`, chain},
		{"two strata", `
			e(X,Y), e(Y,Z) -> p(X,Z).
			e(X,Y), e(Y,Z) -> grand(X,Z).
			n(X), not p(X,X) -> s(X,X).
			e(X,Y), not p(X,Y) -> s(X,Y).
			e(X,Y), e(Y,Z) -> s(X,Z).
			e(X,Y), e(Y,Z), X != Z -> s(Z,X).
		`, append(chain, nodes...)},
	}
}

// TestCSESharedBodies: rules sharing a positive body are matched through
// one shared cursor per delta; the shared-firing counter proves the
// sharing happened and the bytes prove it did not change the result.
func TestCSESharedBodies(t *testing.T) {
	for _, sc := range cseScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			base := dbBytes(runWithOpts(t, sc.src, sc.facts, Options{DisablePlanner: true}))
			c, err := Compile(parser.MustParse(sc.src), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(c.groups) == 0 {
				t.Fatal("no CSE groups built for identical bodies")
			}
			if c.Stratum != nil {
				spans := false
				for _, g := range c.groups {
					for _, m := range g.members {
						spans = spans || c.Stratum[m[0]] != c.Stratum[g.members[0][0]]
					}
				}
				if !spans {
					t.Fatal("no CSE group spans strata")
				}
			}
			e := c.NewEngine()
			res, err := e.Run(context.Background(), sc.facts)
			if err != nil {
				t.Fatal(err)
			}
			if got := dbBytes(res); got != base {
				t.Error("CSE run diverges from planner-off run")
			}
			if _, _, shared := e.PlannerStats(); shared == 0 {
				t.Error("no shared firings recorded")
			}
		})
	}
}

// TestCSESynthCCounts pins the work of the chase on iWarded synthC at 450
// facts per relation, seed 1 (the iwarded-chase benchmark input). Twenty
// rules share the body w0__tag(X,P), w0__tag(Y,P) and the condition X > Y:
// the group body tests it once per enumerated pair and logs only the pairs
// that pass, where each member testing it on every logged pair took 475 200
// tests. Matches, derivations and the planner's counts are those of a run
// that shares no condition.
func TestCSESynthCCounts(t *testing.T) {
	cfg, _ := iwarded.Scenario("synthC")
	cfg.FactsPerRel, cfg.Seed = 450, 1
	g, err := iwarded.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(parser.MustParse(g.Source), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := c.NewEngine()
	if _, err := e.Run(context.Background(), g.Facts); err != nil {
		t.Fatal(err)
	}
	if got := e.CondsTested(); got != 23_760 {
		t.Errorf("conditions tested %d, want 23 760", got)
	}
	if got := e.Matches(); got != 292_270 {
		t.Errorf("matches %d, want 292 270", got)
	}
	if got := e.Derivations(); got != 74_404 {
		t.Errorf("derivations %d, want 74 404", got)
	}
	if d, r, s := e.PlannerStats(); d != 90 || r != 22 || s != 269_895 {
		t.Errorf("planner stats %d / %d / %d, want 90 / 22 / 269 895", d, r, s)
	}
}

// TestCSEChargesReplaysInStratum: a batch charges its candidate room once
// per candidate and firing that replays it. A group leader's candidates are
// replayed by the members of its group in the batch's stratum only, so on
// groups spanning two strata the batch is charged for those, not for the
// whole group.
func TestCSEChargesReplaysInStratum(t *testing.T) {
	for _, sc := range cseScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			c, err := Compile(parser.MustParse(sc.src), Options{})
			if err != nil {
				t.Fatal(err)
			}
			e := c.NewEngine()
			if err := e.LoadChunk(sc.facts); err != nil {
				t.Fatal(err)
			}
			partial := false // some leader replayed by fewer firings than its group has
			for batches := 0; !e.Quiesced(); batches++ {
				if batches > 1000 {
					t.Fatal("no fixpoint after 1000 batches")
				}
				m := e.Meter()
				room := max(candHeadroom*m.Limit(), candFloor) - m.Used()
				if err := e.step(context.Background()); err != nil {
					t.Fatal(err)
				}
				if len(e.tasks) == 0 {
					continue // a batch no rule reads matches nothing
				}
				want := 0
				for ti := range e.tasks {
					tk := &e.tasks[ti]
					if tk.follower(ti) {
						continue
					}
					replays := 0
					for tj := range e.tasks {
						if tj == ti || int(e.tasks[tj].lead) == ti {
							replays++
						}
					}
					if tk.g >= 0 && replays < len(c.groups[tk.g].members) && tk.hi > tk.lo {
						partial = true
					}
					want += int(tk.hi-tk.lo) * replays
				}
				if got := room - e.room; got != want {
					t.Fatalf("batch %d charged %d candidates, want %d (captured × replaying firings)", batches, got, want)
				}
			}
			if c.Stratum != nil && !partial {
				t.Error("no leader's candidates were replayed by only part of its group")
			}
		})
	}
}

// TestExplainKeepsPlans: Explain describes the plans the firings run — a
// grouped firing's is its group body's — so explaining after Run derives
// no plan and evicts none: a resumed run plans nothing either.
func TestExplainKeepsPlans(t *testing.T) {
	for _, sc := range cseScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			c, err := Compile(parser.MustParse(sc.src), Options{})
			if err != nil {
				t.Fatal(err)
			}
			e := c.NewEngine()
			ctx := context.Background()
			if _, err := e.Run(ctx, sc.facts); err != nil {
				t.Fatal(err)
			}
			derives, _, _ := e.PlannerStats()
			if !strings.Contains(e.Explain(), "[shared body ×") {
				t.Error("Explain marks no shared body")
			}
			if got, _, _ := e.PlannerStats(); got != derives {
				t.Errorf("Explain after Run moved derives %d -> %d", derives, got)
			}
			more := []ast.Fact{ast.NewFact("e", term.Int(100), term.Int(101))}
			if _, err := e.Run(ctx, more); err != nil {
				t.Fatal(err)
			}
			if got, _, _ := e.PlannerStats(); got != derives {
				t.Errorf("Explain, then a resumed Run, moved derives %d -> %d", derives, got)
			}
		})
	}
}
