package pipeline

import (
	"sort"

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

	// bounded marks rules whose firings join a delta only against rows the
	// filter has already consumed (semi-naive; see Session.fire): rules with
	// two or more positive atoms, no aggregate, and no positive atom over a
	// predicate supersession rewrites in place — an aggregate head or its
	// tag twin. There the number of supersession steps, each a derivation,
	// depends on how often and in which order matches are emitted, so those
	// rules keep enumerating against the whole relation.
	bounded []bool
	// settle lists the negated predicates in stratum order (then by name),
	// and waits[ri] is one more than the last position in settle of a
	// predicate rule ri negates (0 when it negates none). A session that
	// negates takes all its input, then pulls each predicate of settle to
	// exhaustion in turn (Session.settle); a filter fires once everything
	// it negates is settled. Both nil when nothing negates.
	settle []string
	waits  []int
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
		hub := constraintHub
		if r := cr.Rule; !r.IsConstraint && r.EGD == nil {
			hub = r.Heads[0].Pred
		}
		c.producers[hub] = append(c.producers[hub], i)
	}
	if c.Strata != nil {
		c.orderNegation()
	}
	return c, nil
}

// orderNegation fills settle and waits from the program's strata.
func (c *Compiled) orderNegation() {
	at := make(map[string]int)
	for _, cr := range c.Rules {
		for _, a := range cr.Neg {
			if _, ok := at[a.Pred]; !ok {
				at[a.Pred] = 0
				c.settle = append(c.settle, a.Pred)
			}
		}
	}
	sort.Slice(c.settle, func(i, j int) bool {
		si, sj := c.Strata[c.settle[i]], c.Strata[c.settle[j]]
		return si < sj || si == sj && c.settle[i] < c.settle[j]
	})
	for i, pred := range c.settle {
		at[pred] = i
	}
	c.waits = make([]int, len(c.Rules))
	for ri, cr := range c.Rules {
		for _, a := range cr.Neg {
			c.waits[ri] = max(c.waits[ri], at[a.Pred]+1)
		}
	}
}

// NewSession derives fresh run-time state (database, interner, strategy,
// buffers, cursors) over the shared compiled artifact; a rule's binding is
// made on its first firing. Sessions are cheap; each is for use by a single
// goroutine.
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
	// One block of filters, and one block each for every filter's
	// relations, cursors and plans, cut per rule.
	atoms := 0
	for _, cr := range c.Rules {
		atoms += len(cr.Pos)
	}
	rels, cursors, sized := make([]*storage.Relation, atoms), make([]int, atoms), make([]*planner.Plan, atoms)
	s.filters = make([]ruleFilter, len(c.Rules))
	for i, cr := range c.Rules {
		n := len(cr.Pos)
		f := &s.filters[i]
		f.idx, f.cr, f.bounded = i, cr, c.bounded[i]
		f.rels, rels = rels[:n:n], rels[n:]
		f.cursors, cursors = cursors[:n:n], cursors[n:]
		f.sized, sized = sized[:n:n], sized[n:]
		if c.waits != nil {
			f.waits = c.waits[i]
		}
		for k := range cr.Pos {
			f.rels[k] = s.DB().Rel(cr.Pos[k].Pred, cr.Pos[k].Arity())
		}
	}
	//vadalint:ordered each hub's producer list is built from its own key's ruleIdxs only
	for pred, ruleIdxs := range c.producers {
		h := s.hubs[pred]
		if h == nil { // the synthetic constraint sink
			h = &hub{pred: pred, rel: s.DB().Rel(pred, 1)}
			s.hubs[pred] = h
		}
		for _, ri := range ruleIdxs {
			h.producers = append(h.producers, &s.filters[ri])
		}
	}
	return s
}
