package chase

import (
	"fmt"

	"repro/internal/eval"
)

// Explain renders the access plan annotated, per rule and per delta-pinned
// body atom, with the join order the cost-based planner holds for what the
// firing runs (admit.Core.Explain). A firing whose positive body is shared
// with other rules (CSE) runs its group's body: its line describes that
// body's plan and carries the group size.
func (e *Engine) Explain() string {
	return e.Core.Explain(func(ri, pos int) (*eval.CompiledRule, string) {
		g, ok := e.c.groupOf[[2]int{ri, pos}]
		if !ok {
			return nil, ""
		}
		return e.c.groups[g].body, fmt.Sprintf(" [shared body ×%d]", len(e.c.groups[g].members))
	})
}
