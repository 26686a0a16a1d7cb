package pipeline

import (
	"repro/internal/eval"
	"repro/internal/planner"
)

// Plan renders the compiled reasoning access plan (paper Sec. 4, step 2:
// the logic compiler's pipeline of filters and pipes): one line per filter
// with its generating-rule kind and termination-wrapper role, and the
// pipes from the predicates it reads to the predicate it feeds. The plan
// is a compile-time artifact: it exists before any session runs.
func (c *Compiled) Plan() string {
	return planner.RenderPlan(c.Prog, c.Preds, c.Rules, nil)
}

// Plan renders the session's reasoning access plan (delegates to the
// shared compiled artifact).
func (s *Session) Plan() string { return s.c.Plan() }

// Explain renders the access plan annotated, per rule and per delta-pinned
// body atom, with the join order the cost-based planner chooses and the
// estimates that drove it — against the session's statistics at call time,
// so explaining after Run shows the orders the fixpoint converged on.
// Inline rules (Skolem body assignments, negation) run their static
// schedules and carry no annotation; with the planner disabled, Explain
// renders the plain plan.
func (s *Session) Explain() string {
	var annotate func(ri int, cr *eval.CompiledRule) []string
	if pl := s.Planner(); pl != nil {
		annotate = func(ri int, cr *eval.CompiledRule) []string {
			if s.c.inline[ri] {
				return []string{"static schedule (inline rule)"}
			}
			lines := make([]string, 0, len(cr.Pos))
			for pi := range cr.Pos {
				lines = append(lines, pl.Describe(cr, pi))
			}
			return lines
		}
	}
	return planner.RenderPlan(s.c.Prog, s.c.Preds, s.c.Rules, annotate)
}
