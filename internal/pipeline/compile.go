package pipeline

import (
	"sync"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/storage"
)

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
	// predicate admission rewrites in place (admit.Compiled.InPlace). There
	// the number of supersession steps, each a derivation, depends on how
	// often and in which order matches are emitted, so those rules keep
	// enumerating against the whole relation.
	bounded []bool
	// producers maps a predicate to the indexes of the rules feeding it, in
	// rule order. Constraint and EGD filters feed no predicate: sweep runs
	// them.
	producers map[string][]int
	// cones memoizes, per pulled predicate, its relevance cone as filter
	// indexes (see cone). It fills on first use, never in Compile, and is
	// safe for the concurrent sessions a Compiled serves.
	cones sync.Map // string -> []int
	// egdCone is the filters of every EGD and constraint with their cones
	// (analysis.Cone with no root), nil when that is every filter, for a
	// program with an EGD (admit.Compiled.EGDs): what Next sweeps before
	// it yields a fact that carries a null (Session.settleNulls).
	egdCone []int
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
	for i, cr := range c.Rules {
		bounded := len(cr.Pos) >= 2 && cr.Agg == nil
		for _, a := range cr.Pos {
			bounded = bounded && !c.InPlace[a.Pred]
		}
		c.bounded = append(c.bounded, bounded)
		if r := cr.Rule; !r.IsConstraint && r.EGD == nil {
			head := r.Heads[0].Pred
			c.producers[head] = append(c.producers[head], i)
		}
	}
	if c.EGDs {
		if c.egdCone = analysis.Cone(c.Prog, c.RW.TagPreds); len(c.egdCone) == len(c.Rules) {
			c.egdCone = nil
		}
	}
	return c, nil
}

// cone returns the filters a pull of pred drives (analysis.Cone over the
// rewritten program, tag twins leading back to their originals), in rule
// order: nil when that is every filter, so a sweep over it is the sweep
// over all. A predicate no rule derives has the cone of the constraints and
// EGDs, which is not nil. The first call for pred computes it; later ones
// read the memo.
func (c *Compiled) cone(pred string) []int {
	if v, ok := c.cones.Load(pred); ok {
		return v.([]int)
	}
	cone := analysis.Cone(c.Prog, c.RW.TagPreds, pred)
	if len(cone) == len(c.Rules) {
		cone = nil
	}
	v, _ := c.cones.LoadOrStore(pred, cone)
	return v.([]int)
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
	//vadalint:ordered keyed effects only: Rel keeps db.names sorted, hub registration is per-pred
	for pred, arity := range c.Preds {
		s.hubs[pred] = &hub{pred: pred, rel: s.DB().Rel(pred, arity)}
	}
	// One block of filters, and one block each for every filter's
	// relations and cursors, cut per rule.
	atoms := 0
	for _, cr := range c.Rules {
		atoms += len(cr.Pos)
	}
	rels, cursors := make([]*storage.Relation, atoms), make([]int, atoms)
	s.filters = make([]ruleFilter, len(c.Rules))
	for i, cr := range c.Rules {
		n := len(cr.Pos)
		f := &s.filters[i]
		f.idx, f.cr, f.bounded = i, cr, c.bounded[i]
		f.rels, rels = rels[:n:n], rels[n:]
		f.cursors, cursors = cursors[:n:n], cursors[n:]
		if c.Stratum != nil {
			f.stratum = c.Stratum[i]
		}
		for k := range cr.Pos {
			f.rels[k] = s.DB().Rel(cr.Pos[k].Pred, cr.Pos[k].Arity())
		}
	}
	//vadalint:ordered each hub's producer list is built from its own key's ruleIdxs only
	for pred, ruleIdxs := range c.producers {
		h := s.hubs[pred]
		for _, ri := range ruleIdxs {
			h.producers = append(h.producers, &s.filters[ri])
		}
	}
	return s
}
