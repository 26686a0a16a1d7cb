package repro

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/pipeline"
)

// TestExplainBeforeRunReplans: Explain on a fresh session derives its plans
// against empty relations, where the skew join's wide and narrow atoms tie
// and the source order puts wide first. Drift re-planning must not let that
// plan stick: once the run has loaded the data, the src delta joins the
// one-row-per-key narrow side before the wide one, on both engines.
func TestExplainBeforeRunReplans(t *testing.T) {
	prog, facts := skewJoin()
	ctx := context.Background()
	engines := []struct {
		name string
		run  func(t *testing.T) (before, after string, replans int)
	}{
		{"pipeline", func(t *testing.T) (string, string, int) {
			s, err := pipeline.New(prog, pipeline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			before := s.Explain()
			if err := s.Run(ctx, facts); err != nil {
				t.Fatal(err)
			}
			return before, s.Explain(), s.Planner().Replans()
		}},
		{"chase", func(t *testing.T) (string, string, int) {
			c, err := chase.Compile(prog, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e := c.NewEngine()
			before := e.Explain()
			if _, err := e.Run(ctx, facts); err != nil {
				t.Fatal(err)
			}
			_, replans, _ := e.PlannerStats()
			return before, e.Explain(), replans
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			before, after, replans := eng.run(t)
			if got := srcJoinOrder(before); got != "src* ⋈ wide ⋈ narrow" {
				t.Errorf("before Run: Δsrc joins %q, want the source order over empty relations", got)
			}
			if got := srcJoinOrder(after); got != "src* ⋈ narrow ⋈ wide" {
				t.Errorf("after Run: Δsrc joins %q, want src* ⋈ narrow ⋈ wide", got)
			}
			if replans == 0 {
				t.Error("no plan was re-derived after the data arrived")
			}
		})
	}
}

// estimate matches a joined atom's "(est N)" annotation in an Explain line.
var estimate = regexp.MustCompile(`\(est [^)]*\)`)

// srcJoinOrder returns the join order of explain's Δsrc line, estimates and
// row counts dropped.
func srcJoinOrder(explain string) string {
	for _, line := range strings.Split(explain, "\n") {
		if order, ok := strings.CutPrefix(strings.TrimSpace(line), "Δsrc: "); ok {
			order, _, _ = strings.Cut(order, " — ")
			return estimate.ReplaceAllString(order, "")
		}
	}
	return ""
}
