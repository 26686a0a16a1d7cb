package admit

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/term"
)

// stepsSrc has a planned rule (0) and a Skolem rule (1) over a chain e and
// a small f.
const stepsSrc = `
	e(X,Y), e(Y,Z), f(Z) -> p(X,Z).
	e(X,Y), K = #sk(X), e(Y,Z) -> q(K,Z).
`

func stepsCore(t *testing.T, cfg Config) (*Compiled, *Core) {
	t.Helper()
	p, err := Compile(parser.MustParse(stepsSrc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Skolem[1] || p.Skolem[0] {
		t.Fatalf("Skolem marks %v, want rule 1 only", p.Skolem)
	}
	c := p.NewCore(func(*core.FactMeta) {})
	for i := 0; i < 50; i++ {
		if err := c.LoadRow("e", []term.Value{term.Int(int64(i)), term.Int(int64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := c.LoadRow("f", []term.Value{term.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return p, c
}

// indexCount is the number of dynamic indexes over the relations of
// stepsSrc's bodies.
func indexCount(c *Core) int {
	return c.DB().Lookup("e").IndexCount() + c.DB().Lookup("f").IndexCount()
}

// TestSteps pins which schedule a firing runs (Core.Steps): a Skolem rule,
// and every rule with the planner off, runs the static schedule Compile
// built for it (ScheduleFor with no order) and plans nothing; any other
// firing runs the planner's plan, whose probe indexes the call that derived
// it creates, and a repeated call at an unchanged statistics generation
// derives nothing and creates no index. Compile builds no static schedule
// for a rule the planner schedules.
func TestSteps(t *testing.T) {
	static := func(t *testing.T, p *Compiled, c *Core, ri int) {
		t.Helper()
		cr := p.Rules[ri]
		for pos := range cr.Pos {
			got, want := c.Steps(ri, cr, pos), p.static[ri][pos]
			if len(got) == 0 || unsafe.SliceData(got) != unsafe.SliceData(want) {
				t.Errorf("rule %d pinned at %d runs %v, want its static schedule %v", ri, pos, got, want)
			}
			if fresh := cr.ScheduleFor(pos, nil); !slices.Equal(got, fresh) {
				t.Errorf("rule %d pinned at %d: static schedule %v, ScheduleFor(%d, nil) is %v", ri, pos, got, pos, fresh)
			}
		}
	}
	t.Run("planner off", func(t *testing.T) {
		p, c := stepsCore(t, Config{DisablePlanner: true})
		for ri := range p.Rules {
			static(t, p, c, ri)
		}
		if n := indexCount(c); n != 0 {
			t.Errorf("static schedules created %d indexes, want none", n)
		}
	})
	t.Run("skolem", func(t *testing.T) {
		p, c := stepsCore(t, Config{})
		static(t, p, c, 1)
		if p.static[0] != nil {
			t.Errorf("the planned rule 0 holds static schedules %v, want none", p.static[0])
		}
		if d := c.Planner().Derives(); d != 0 {
			t.Errorf("a Skolem rule's firings derived %d plans, want none", d)
		}
		if n := indexCount(c); n != 0 {
			t.Errorf("a Skolem rule's firings created %d indexes, want none", n)
		}
	})
	t.Run("planned", func(t *testing.T) {
		p, c := stepsCore(t, Config{})
		cr, pl := p.Rules[0], c.Planner()
		steps := c.Steps(0, cr, 0)
		plan := pl.PlanFor(cr, 0)
		if pl.Derives() != 1 {
			t.Fatalf("%d derives after one planned call, want 1", pl.Derives())
		}
		if len(steps) == 0 || unsafe.SliceData(steps) != unsafe.SliceData(plan.Steps) {
			t.Errorf("the firing runs %v, want the plan's %v", steps, plan.Steps)
		}
		type index struct {
			pred string
			mask uint32
		}
		probes := make(map[index]bool)
		for _, pr := range plan.Probes {
			probes[index{pr.Pred, pr.Mask}] = true
		}
		if len(probes) == 0 {
			t.Fatal("the plan probes no index: the test measures nothing")
		}
		if n := indexCount(c); n != len(probes) {
			t.Errorf("the deriving call created %d indexes, want the plan's %d probes", n, len(probes))
		}
		derives, indexes := pl.Derives(), indexCount(c)
		for range 3 {
			c.Steps(0, cr, 0)
		}
		if pl.Derives() != derives || indexCount(c) != indexes {
			t.Errorf("repeated calls moved derives %d -> %d, indexes %d -> %d", derives, pl.Derives(), indexes, indexCount(c))
		}
	})
}
