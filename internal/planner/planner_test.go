package planner

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

// fakeCat is a hand-set statistics catalog; relStats counts RelStats calls.
type fakeCat struct {
	gen      uint64
	stats    map[string]storage.RelStats
	relStats int
}

func (c *fakeCat) RelStats(pred string) (storage.RelStats, bool) {
	c.relStats++
	st, ok := c.stats[pred]
	return st, ok
}

func (c *fakeCat) Live(pred string) int { return c.stats[pred].Live }

func (c *fakeCat) Gen() uint64 { return c.gen }

func compileRule(t *testing.T, src string) *eval.CompiledRule {
	t.Helper()
	prog := parser.MustParse(src)
	res := analysis.Analyze(prog)
	cr, err := eval.Compile(prog.Rules[0], res.Rules[0])
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

func skewCat() *fakeCat {
	return &fakeCat{stats: map[string]storage.RelStats{
		"s":     {Live: 1, Distinct: []int{1}},
		"big":   {Live: 100000, Distinct: []int{1000, 1000}},
		"small": {Live: 10, Distinct: []int{10, 10}},
	}}
}

// TestGreedySkewOrder: with the delta pinned on the tiny source atom, the
// planner matches the small relation before the huge one — the
// smallest-estimated-intermediate-first objective.
func TestGreedySkewOrder(t *testing.T) {
	cr := compileRule(t, `s(X), big(X,Y), small(Y,Z) -> out(X,Z).`)
	pl := New(skewCat())
	p := pl.PlanFor(cr, 0)
	if len(p.Order) != 2 || p.Order[0] != 2 || p.Order[1] != 1 {
		t.Fatalf("order: %v, want [2 1] (small before big)", p.Order)
	}
	// big is probed on both columns once small bound Y: its presize hint
	// carries the mask and a key estimate capped at the live count.
	var found bool
	for _, pr := range p.Probes {
		if pr.Pred == "big" && pr.Mask == 0b11 {
			found = true
			if pr.Keys <= 0 || pr.Keys > 100000 {
				t.Errorf("big probe keys: %d", pr.Keys)
			}
		}
	}
	if !found {
		t.Errorf("no presize probe for big: %+v", p.Probes)
	}
	if pl.Derives() != 1 {
		t.Errorf("derives: %d, want 1", pl.Derives())
	}
}

// TestWorstInvertsObjective: Worst mode picks the largest estimated
// intermediate at every step (the deliberately terrible plan used to
// prove plan-independence of results).
func TestWorstInvertsObjective(t *testing.T) {
	cr := compileRule(t, `s(X), big(X,Y), small(Y,Z) -> out(X,Z).`)
	pl := New(skewCat())
	pl.Worst = true
	p := pl.PlanFor(cr, 0)
	if len(p.Order) != 2 || p.Order[0] != 1 || p.Order[1] != 2 {
		t.Fatalf("worst order: %v, want [1 2] (big before small)", p.Order)
	}
}

// TestGreedyTieBreakSourceOrder: equal estimates resolve to the earliest
// source-order atom — the same documented tie-break as the static
// schedule, pinned so plans are reproducible run to run.
func TestGreedyTieBreakSourceOrder(t *testing.T) {
	cr := compileRule(t, `a(X), b(X), c(X) -> h(X).`)
	same := storage.RelStats{Live: 100, Distinct: []int{50}}
	pl := New(&fakeCat{stats: map[string]storage.RelStats{"a": {Live: 1}, "b": same, "c": same}})
	p := pl.PlanFor(cr, 0)
	if len(p.Order) != 2 || p.Order[0] != 1 || p.Order[1] != 2 {
		t.Fatalf("order: %v, want [1 2] (source-order tie-break)", p.Order)
	}
}

// TestPlanCacheAndDriftReplan: plans are kept per (rule, pinned) while
// the generation stands; a new generation revalidates cheaply and only a
// drift past the threshold recomputes.
func TestPlanCacheAndDriftReplan(t *testing.T) {
	cr := compileRule(t, `s(X), big(X,Y), small(Y,Z) -> out(X,Z).`)
	cat := skewCat()
	pl := New(cat)
	p1 := pl.PlanFor(cr, 0)
	if p2 := pl.PlanFor(cr, 0); p2 != p1 {
		t.Fatal("same generation must serve the cached plan")
	}
	// New generation, same sizes: revalidate, no recompute.
	cat.gen++
	if p2 := pl.PlanFor(cr, 0); p2 != p1 || pl.Derives() != 1 || pl.Replans() != 0 {
		t.Fatalf("undrifted revalidation recomputed: derives=%d replans=%d", pl.Derives(), pl.Replans())
	}
	// small explodes past the drift threshold: the plan is recomputed and
	// the join order flips.
	cat.gen++
	cat.stats["small"] = storage.RelStats{Live: 1_000_000, Distinct: []int{2, 2}}
	p3 := pl.PlanFor(cr, 0)
	if pl.Derives() != 2 || pl.Replans() != 1 {
		t.Fatalf("drift must recompute: derives=%d replans=%d", pl.Derives(), pl.Replans())
	}
	if len(p3.Order) != 2 || p3.Order[0] != 1 {
		t.Fatalf("replanned order: %v, want big first", p3.Order)
	}
}

// TestDescribe: the -explain rendering names the pinned atom, the chosen
// order with estimates, and the row counts that drove it.
func TestDescribe(t *testing.T) {
	cr := compileRule(t, `s(X), big(X,Y), small(Y,Z) -> out(X,Z).`)
	pl := New(skewCat())
	line := pl.Describe(cr, 0)
	for _, want := range []string{"Δs: s*", "small(est", "big(est", "rows", "big=100000"} {
		if !strings.Contains(line, want) {
			t.Errorf("describe %q missing %q", line, want)
		}
	}
	if strings.Index(line, "small(est") > strings.Index(line, "big(est") {
		t.Errorf("describe orders big before small: %q", line)
	}
}

// TestPlanForAllocations pins what a plan costs: a cached plan at an
// unchanged generation and an undrifted revalidation allocate nothing, and
// the revalidation reads live-row counts only, never a distinct count;
// a fresh derive allocates a fixed handful — the plan, its Order/Rows
// block, Est, Probes and its schedule's steps and flags — whatever the
// rule's atoms and variables.
func TestPlanForAllocations(t *testing.T) {
	cr := compileRule(t, `s(X), big(X,Y), small(Y,Z), Z > 1, W = Z + 1 -> out(X,W).`)
	cat := skewCat()
	pl := New(cat)
	pl.PlanFor(cr, 0)
	if n := testing.AllocsPerRun(100, func() { pl.PlanFor(cr, 0) }); n != 0 {
		t.Errorf("cached PlanFor: %.1f allocations, want 0", n)
	}
	calls := cat.relStats
	if n := testing.AllocsPerRun(100, func() {
		cat.gen++
		pl.PlanFor(cr, 0)
	}); n != 0 {
		t.Errorf("undrifted revalidation: %.1f allocations, want 0", n)
	}
	if cat.relStats != calls || pl.Derives() != 1 {
		t.Errorf("undrifted revalidation called RelStats %d times and derived %d plans, want 0 and 1", cat.relStats-calls, pl.Derives())
	}
	const maxDerive = 6
	for pin := range cr.Pos {
		if n := testing.AllocsPerRun(100, func() { pl.derive(cr, pin, 0) }); n > maxDerive {
			t.Errorf("derive pinned at %d: %.1f allocations, want at most %d", pin, n, maxDerive)
		}
	}
}

// TestSlotsIsolateRulesOfEqualID: plans live in slots by rule ID, and two
// programs number their rules alike. Rules of two programs sharing one
// Planner each get the plan derived for them, however their calls
// interleave.
func TestSlotsIsolateRulesOfEqualID(t *testing.T) {
	a := compileRule(t, `s(X), big(X,Y), small(Y,Z) -> out(X,Z).`)
	b := compileRule(t, `s(X), small(X,Y), big(Y,Z), big(Z,W) -> out(X,W).`)
	if a.Rule.ID != b.Rule.ID {
		t.Fatalf("rule IDs %d and %d, want equal", a.Rule.ID, b.Rule.ID)
	}
	pl := New(skewCat())
	for round := 0; round < 3; round++ {
		for _, cr := range []*eval.CompiledRule{a, b} {
			for pin := range cr.Pos {
				p := pl.PlanFor(cr, pin)
				want := New(skewCat()).PlanFor(cr, pin)
				if p.cr != cr || !slices.Equal(p.Order, want.Order) || !slices.Equal(p.Steps, want.Steps) {
					t.Fatalf("round %d, rule %s pinned at %d: order %v steps %v, want %v %v",
						round, cr.Rule, pin, p.Order, p.Steps, want.Order, want.Steps)
				}
			}
		}
	}
}
