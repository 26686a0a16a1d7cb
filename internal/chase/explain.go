package chase

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/planner"
)

// Explain renders the access plan annotated, per rule and per delta-pinned
// body atom, with the join order the cost-based planner chooses and the
// estimates that drove it — against the statistics frozen at the last
// epoch boundary, so explaining after Run shows the orders the fixpoint
// converged on. Firings whose positive body is shared with other rules
// (CSE) carry the group size; rules with Skolem body assignments are
// evaluated inline on their static schedules and carry no annotation.
// With the planner disabled, Explain renders the plain plan.
func (e *Engine) Explain() string {
	var annotate func(ri int, cr *eval.CompiledRule) []string
	if e.pl != nil {
		annotate = func(ri int, cr *eval.CompiledRule) []string {
			if e.c.Skolem[ri] {
				return []string{"static schedule (inline rule)"}
			}
			lines := make([]string, 0, len(cr.Pos))
			for pi := range cr.Pos {
				line := e.pl.Describe(cr, pi)
				if g, ok := e.c.groupOf[[2]int{ri, pi}]; ok {
					line += fmt.Sprintf(" [shared body ×%d]", len(e.c.groups[g].members))
				}
				lines = append(lines, line)
			}
			return lines
		}
	}
	return planner.RenderPlan(e.c.Prog, e.c.Preds, e.c.Rules, annotate)
}
