package pipeline

import "repro/internal/planner"

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
// estimates that drove it (admit.Core.Explain).
func (s *Session) Explain() string { return s.Core.Explain(nil) }
