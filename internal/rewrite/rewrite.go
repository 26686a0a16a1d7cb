// Package rewrite implements the logic optimizer of paper Sec. 4 (step 1):
// multiple-head elimination, confinement of existential quantification to
// linear rules, and the Harmful Joins Elimination of Sec. 3.2 in its
// dynamic (tag-twin) form, which both engines run.
package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ast"
)

// Options selects which rewritings Apply performs.
type Options struct {
	// SplitHeads splits multi-head rules into single-head rules sharing the
	// original rule's Skolem base (so shared existentials keep one null).
	SplitHeads bool
	// LinearizeExistentials moves existential quantification out of
	// non-linear rules through auxiliary predicates, establishing the
	// precondition of Algorithm 1.
	LinearizeExistentials bool
	// EliminateHarmfulJoins replaces joins over harmful variables by joins
	// over ground reifications of null identity (tag twins), making the
	// program harmless warded. See TagPred.
	EliminateHarmfulJoins bool
}

// DefaultOptions enables every rewriting, as the Vadalog logic optimizer
// does.
func DefaultOptions() Options {
	return Options{SplitHeads: true, LinearizeExistentials: true, EliminateHarmfulJoins: true}
}

// Result carries the rewritten program and bookkeeping the engine needs.
type Result struct {
	Program *ast.Program
	// TagPreds maps each predicate that participates in a harmful join to
	// its tag-twin predicate: whenever the engine admits a fact of pred
	// with labelled nulls in affected positions, it must also insert the
	// twin fact with nulls replaced by their canonical ground keys.
	TagPreds map[string]string
	// AuxPreds lists predicates introduced by the rewritings; they are
	// excluded from user-visible output.
	AuxPreds map[string]bool
	// Notes records human-readable descriptions of applied rewritings.
	Notes []string
}

// Apply runs the selected rewritings in the canonical order.
func Apply(p *ast.Program, opts Options) (*Result, error) {
	res := &Result{Program: p, TagPreds: make(map[string]string), AuxPreds: make(map[string]bool)}
	if opts.SplitHeads {
		res.Program = SplitMultiHeads(res.Program)
	}
	if opts.LinearizeExistentials {
		res.Program = LinearizeExistentials(res.Program, res.AuxPreds)
	}
	if opts.EliminateHarmfulJoins {
		prog, tags, notes := EliminateHarmfulJoinsDynamic(res.Program)
		res.Program = prog
		res.Notes = append(res.Notes, notes...)
		for k, v := range tags {
			res.TagPreds[k] = v
			res.AuxPreds[v] = true
		}
	}
	renumber(res.Program)
	return res, nil
}

// renumber reassigns rule IDs after structural rewritings. Skolem bases
// were frozen before renumbering, so null identities are unaffected.
func renumber(p *ast.Program) {
	for i, r := range p.Rules {
		if r.Skolem == "" {
			r.Skolem = r.SkolemBase() // freeze pre-renumbering base
		}
		r.ID = i
	}
}

// SplitMultiHeads returns a program in which every rule has exactly one
// head atom. Split rules share the original Skolem base, so an existential
// variable occurring in several head atoms denotes the same null in all of
// them (cf. Example 6, rule 4 of the paper).
func SplitMultiHeads(p *ast.Program) *ast.Program {
	out := cloneShell(p)
	for _, r := range p.Rules {
		if len(r.Heads) <= 1 || r.IsConstraint || r.EGD != nil {
			out.AddRule(r.Clone())
			continue
		}
		base := r.SkolemBase()
		for _, h := range r.Heads {
			nr := r.Clone()
			nr.Heads = []ast.Atom{h}
			nr.Skolem = base
			// Re-clone the head args slice (Clone copied all heads).
			nr.Heads[0].Args = append([]ast.Arg(nil), h.Args...)
			out.AddRule(nr)
		}
	}
	return out
}

// LinearizeExistentials ensures existential quantification appears only in
// linear rules (precondition 2 of Algorithm 1): a non-linear rule
// body -> ∃z H is split into body -> aux(frontier) and the linear rule
// aux(frontier) -> ∃z H.
func LinearizeExistentials(p *ast.Program, auxPreds map[string]bool) *ast.Program {
	out := cloneShell(p)
	for _, r := range p.Rules {
		if r.IsConstraint || r.EGD != nil || len(r.Existentials()) == 0 || r.IsLinear() {
			out.AddRule(r.Clone())
			continue
		}
		// Frontier: bound variables used in the head.
		bound := r.BoundVars()
		var frontier []string
		seen := make(map[string]bool)
		for _, v := range r.HeadVars() {
			if bound[v] && !seen[v] {
				seen[v] = true
				frontier = append(frontier, v)
			}
		}
		sort.Strings(frontier)
		aux := fmt.Sprintf("exl_%s_%d", r.SkolemBase(), len(out.Rules))
		auxPreds[aux] = true
		args := make([]ast.Arg, len(frontier))
		for i, v := range frontier {
			args[i] = ast.V(v)
		}
		first := r.Clone()
		first.Heads = []ast.Atom{{Pred: aux, Args: args}}
		out.AddRule(first)

		second := &ast.Rule{
			Body:   []ast.Atom{{Pred: aux, Args: append([]ast.Arg(nil), args...)}},
			Heads:  cloneHeadAtoms(r.Heads),
			Skolem: r.SkolemBase(),
		}
		out.AddRule(second)
	}
	return out
}

func cloneHeadAtoms(hs []ast.Atom) []ast.Atom {
	out := make([]ast.Atom, len(hs))
	for i, h := range hs {
		out[i] = h
		out[i].Args = append([]ast.Arg(nil), h.Args...)
	}
	return out
}

// TagPredName returns the tag-twin predicate name for pred.
func TagPredName(pred string) string { return pred + "__tag" }

// EliminateHarmfulJoinsDynamic rewrites every rule containing a harmful
// join (a join over variables that bind only to labelled nulls) so that
// the join runs over the tag twins of the involved predicates. Tag twins
// hold the canonical ground key of each null (see term.NullFactory.KeyOf):
// two positions carry the same null iff their tags are equal, so the
// rewritten join is equivalent — and harmless, because tags are ground.
//
// The engine materializes tag twins as facts are admitted (an auto-insert
// per admitted fact of a tagged predicate), which keeps the twin relation
// exactly synchronized with the admitted chase, including all cuts made by
// the termination strategy. This is the dynamic counterpart of the
// grounding step of the paper's Harmful Joins Elimination: ground values
// act as their own tags, so the Dom-guarded ground copy is subsumed.
func EliminateHarmfulJoinsDynamic(p *ast.Program) (*ast.Program, map[string]string, []string) {
	res := analysis.Analyze(p)
	tags := make(map[string]string)
	var notes []string
	out := cloneShell(p)
	for i, r := range p.Rules {
		ri := res.Rules[i]
		if !ri.HasHarmfulJoin {
			out.AddRule(r.Clone())
			continue
		}
		// Identify the harmful-join variables: harmful (incl. dangerous)
		// variables occurring in ≥2 positive body atoms. In a warded
		// program such variables are never dangerous (a dangerous variable
		// is confined to the ward, which shares only harmless variables),
		// so they do not occur in the head.
		joinVars := make(map[string]bool)
		occ := make(map[string]int)
		for _, a := range r.Body {
			if a.Negated || a.Pred == ast.DomPred {
				continue
			}
			seen := make(map[string]bool)
			for _, arg := range a.Args {
				if arg.IsVar && arg.Var != "_" && !seen[arg.Var] {
					seen[arg.Var] = true
					occ[arg.Var]++
				}
			}
		}
		for v, n := range occ {
			if n >= 2 && ri.Classes[v] != analysis.Harmless {
				joinVars[v] = true
			}
		}
		nr := r.Clone()
		var swapped []string
		for bi := range nr.Body {
			a := &nr.Body[bi]
			if a.Negated || a.Pred == ast.DomPred {
				continue
			}
			has := false
			for _, arg := range a.Args {
				if arg.IsVar && joinVars[arg.Var] {
					has = true
					break
				}
			}
			if !has {
				continue
			}
			tags[a.Pred] = TagPredName(a.Pred)
			swapped = append(swapped, a.Pred)
			a.Pred = TagPredName(a.Pred)
		}
		notes = append(notes, fmt.Sprintf("rule %d: harmful join rewritten over tag twins of %v", r.ID, swapped))
		out.AddRule(nr)
	}
	if len(tags) == 0 {
		return p, tags, nil
	}
	return out, tags, notes
}

func cloneShell(p *ast.Program) *ast.Program {
	out := ast.NewProgram()
	out.Facts = append(out.Facts, p.Facts...)
	for k := range p.Inputs {
		out.Inputs[k] = true
	}
	for k := range p.Outputs {
		out.Outputs[k] = true
	}
	out.Bindings = append(out.Bindings, p.Bindings...)
	out.Posts = append(out.Posts, p.Posts...)
	out.Mappings = append(out.Mappings, p.Mappings...)
	return out
}
