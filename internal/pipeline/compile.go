package pipeline

import (
	"repro/internal/admit"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/planner"
	"repro/internal/storage"
)

// constraintHub is the synthetic hub that drives constraint and EGD
// filters (side-effect sinks without a head predicate of their own).
const constraintHub = "#constraints"

// Compiled is the immutable compile-time artifact of a program: the
// rewritten rules, their warded analysis, the per-rule executable plans
// and the filter/pipe topology. Compilation happens exactly once; a
// Compiled is safe for concurrent use by any number of goroutines, each
// deriving cheap per-run state with NewSession.
type Compiled struct {
	*admit.Compiled // rewritten program, analysis, per-rule plans

	// inline marks rules whose firings bypass the buffered canonical-order
	// admission path: Skolem assignments in the body mint nulls while
	// matching, so their enumeration order is part of the result and must
	// stay the static schedule's; negated atoms are checked against live
	// state, so admissions interleave with matching exactly as the serial
	// semantics prescribe.
	inline []bool
	// bounded marks rules whose firings join a delta only against rows the
	// filter has already consumed (semi-naive; see Session.fire): rules with
	// two or more positive atoms, no aggregate, and no positive atom over a
	// predicate supersession rewrites in place — an aggregate head or its
	// tag twin. There the number of supersession steps, each a derivation,
	// depends on how often and in which order matches are emitted, so those
	// rules keep enumerating against the whole relation.
	bounded []bool
	// negation reports a negated body atom anywhere in the program: its
	// sessions take all their input before the first pull (Session.Next).
	negation bool
	// producers maps a predicate (or constraintHub) to the indexes of the
	// rules feeding it, in rule order.
	producers map[string][]int
}

// Compile runs rewriting, wardedness analysis and rule compilation on
// prog and returns the shareable artifact. This is the expensive step:
// sessions created from the result skip all of it.
func Compile(prog *ast.Program, opts Options) (*Compiled, error) {
	ac, err := admit.Compile(prog, opts)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Compiled: ac, producers: make(map[string][]int)}
	superseded := make(map[string]bool)
	for _, cr := range c.Rules {
		if cr.Rule.Aggregate == nil {
			continue
		}
		for _, h := range cr.Rule.Heads {
			superseded[h.Pred] = true
			if twin, ok := c.RW.TagPreds[h.Pred]; ok {
				superseded[twin] = true
			}
		}
	}
	for i, cr := range c.Rules {
		bounded := len(cr.Pos) >= 2 && cr.Rule.Aggregate == nil
		for _, a := range cr.Pos {
			bounded = bounded && !superseded[a.Pred]
		}
		c.bounded = append(c.bounded, bounded)
		c.inline = append(c.inline, c.Skolem[i] || len(cr.Neg) > 0)
		c.negation = c.negation || len(cr.Neg) > 0
		hub := constraintHub
		if r := cr.Rule; !r.IsConstraint && r.EGD == nil {
			hub = r.Heads[0].Pred
		}
		c.producers[hub] = append(c.producers[hub], i)
	}
	return c, nil
}

// NewSession derives fresh run-time state (database, interner, strategy,
// buffers, bindings, cursors) over the shared compiled artifact. Sessions
// are cheap; each is for use by a single goroutine.
func (c *Compiled) NewSession() *Session {
	s := &Session{
		c:      c,
		hubs:   make(map[string]*hub),
		timing: c.Config().PhaseTiming,
	}
	s.Core = c.NewCore(s.admitted)
	s.mt = &eval.Matcher{DB: s.DB()}
	//vadalint:ordered keyed effects only: Rel keeps db.names sorted, hub registration is per-pred
	for pred, arity := range c.Preds {
		s.hubs[pred] = &hub{pred: pred, rel: s.DB().Rel(pred, arity)}
	}
	for i, cr := range c.Rules {
		f := &ruleFilter{
			idx:     i,
			cr:      cr,
			binding: eval.NewBinding(cr),
			rels:    make([]*storage.Relation, len(cr.Pos)),
			cursors: make([]int, len(cr.Pos)),
			sized:   make([]*planner.Plan, len(cr.Pos)),
		}
		for k := range cr.Pos {
			f.rels[k] = s.DB().Rel(cr.Pos[k].Pred, cr.Pos[k].Arity())
		}
		if c.bounded[i] {
			// The cursors are the bound: none of these relations is ever
			// rewritten in place, so a cursor's delta count is a row count.
			f.binding.RowBound = f.cursors
		}
		s.filters = append(s.filters, f)
	}
	//vadalint:ordered each hub's producer list is built from its own key's ruleIdxs only
	for pred, ruleIdxs := range c.producers {
		h := s.hubs[pred]
		if h == nil { // the synthetic constraint sink
			h = &hub{pred: pred, rel: s.DB().Rel(pred, 1)}
			s.hubs[pred] = h
		}
		for _, ri := range ruleIdxs {
			h.producers = append(h.producers, s.filters[ri])
		}
	}
	return s
}
