package analysis

import "repro/internal/ast"

// Cone returns, in ascending order, the positions in p.Rules of the rules
// in the relevance cone of roots: every rule deriving a root, and then
// every rule deriving a predicate some cone rule reads in its body —
// positive, negated or aggregated alike. twins maps a predicate to its tag
// twin (rewrite.Result.TagPreds; nil for a program as written): the engine
// inserts a twin's facts when it admits the original's, so a twin in the
// cone leads back to its original. Constraints and EGDs are always in the
// cone, with their own cones: a constraint must fail a run whatever is
// asked of it, and an EGD merges nulls in every relation.
//
// It is one worklist pass over a head → rules index, linear in the size of
// the program. A rule outside the cone of every query can never change
// its answer.
func Cone(p *ast.Program, twins map[string]string, roots ...string) []int {
	heads := make(map[string][]int)
	for i, r := range p.Rules {
		for _, h := range r.Heads {
			heads[h.Pred] = append(heads[h.Pred], i)
		}
	}
	origin := make(map[string]string, len(twins))
	for pred, twin := range twins {
		origin[twin] = pred
	}
	in := make([]bool, len(p.Rules))
	seen := make(map[string]bool)
	var work []string
	reach := func(pred string) {
		if !seen[pred] {
			seen[pred] = true
			work = append(work, pred)
		}
	}
	add := func(i int) {
		if in[i] {
			return
		}
		in[i] = true
		for _, b := range p.Rules[i].Body {
			if b.Pred != ast.DomPred {
				reach(b.Pred)
			}
		}
	}
	for _, pred := range roots {
		reach(pred)
	}
	for i, r := range p.Rules {
		if r.IsConstraint || r.EGD != nil {
			add(i)
		}
	}
	for len(work) > 0 {
		pred := work[len(work)-1]
		work = work[:len(work)-1]
		for _, i := range heads[pred] {
			add(i)
		}
		if orig, ok := origin[pred]; ok {
			reach(orig)
		}
	}
	cone := make([]int, 0, len(p.Rules))
	for i, ok := range in {
		if ok {
			cone = append(cone, i)
		}
	}
	return cone
}
