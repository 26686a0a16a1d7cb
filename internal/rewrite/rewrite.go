// Package rewrite implements the logic optimizer of paper Sec. 4 (step 1):
// multiple-head elimination, confinement of existential quantification to
// linear rules, and the Harmful Joins Elimination of Sec. 3.2 in its
// dynamic (tag-twin) form, which both engines run.
package rewrite

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ast"
)

// Options has no fields: every rewriting always runs, as the Vadalog logic
// optimizer does. The type and DefaultOptions remain because callers
// outside this module, the benchmark harness among them, pass them to
// Apply.
type Options struct{}

// DefaultOptions returns the empty Options.
func DefaultOptions() Options { return Options{} }

// Result carries the rewritten program and bookkeeping the engine needs.
type Result struct {
	Program *ast.Program
	// Analysis is the warded analysis of Program, so the compile that
	// called Apply does not analyze it again.
	Analysis *analysis.Result
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

// Apply runs the rewritings in the canonical order: multi-head splitting,
// existential linearization, harmful-join elimination. Rules are immutable
// (ast.Rule), so every pass shares the rules it keeps with its input, and
// the output's analysis reuses, for every rule the elimination kept, the
// analysis the elimination read.
func Apply(p *ast.Program, _ Options) (*Result, error) {
	res := &Result{AuxPreds: make(map[string]bool)}
	prog := renumber(LinearizeExistentials(SplitMultiHeads(p), res.AuxPreds))
	ana := analysis.Analyze(prog)
	res.Program, res.TagPreds, res.Notes = EliminateHarmfulJoinsDynamic(prog, ana)
	res.Analysis = ana
	if res.Program != prog {
		res.Analysis = analysis.Reanalyze(res.Program, ana)
	}
	for _, twin := range res.TagPreds {
		res.AuxPreds[twin] = true
	}
	return res, nil
}

// renumber makes every rule's ID its position in p, copying the rules whose
// position moved, and returns p. The passes name what they derive after
// input positions (ast.Rule.SkolemBaseAt), which these IDs now are.
func renumber(p *ast.Program) *ast.Program {
	for i, r := range p.Rules {
		if r.ID != i {
			moved := *r
			moved.ID = i
			p.Rules[i] = &moved
		}
	}
	return p
}

// SplitMultiHeads returns a program in which every rule has exactly one
// head atom. Split rules share the original Skolem base, so an existential
// variable occurring in several head atoms denotes the same null in all of
// them (cf. Example 6, rule 4 of the paper). Single-head rules are shared
// with p.
func SplitMultiHeads(p *ast.Program) *ast.Program {
	out := cloneShell(p)
	for i, r := range p.Rules {
		if len(r.Heads) <= 1 || r.IsConstraint || r.EGD != nil {
			out.Rules = append(out.Rules, r)
			continue
		}
		base := r.SkolemBaseAt(i)
		for _, h := range r.Heads {
			nr := *r
			nr.Heads = []ast.Atom{h}
			nr.Skolem = base
			out.AddRule(&nr)
		}
	}
	return out
}

// LinearizeExistentials ensures existential quantification appears only in
// linear rules (precondition 2 of Algorithm 1): a non-linear rule
// body -> ∃z H is split into body -> aux(frontier) and the linear rule
// aux(frontier) -> ∃z H. Every other rule is shared with p.
func LinearizeExistentials(p *ast.Program, auxPreds map[string]bool) *ast.Program {
	out := cloneShell(p)
	for i, r := range p.Rules {
		if r.IsConstraint || r.EGD != nil || len(r.Existentials()) == 0 || r.IsLinear() {
			out.Rules = append(out.Rules, r)
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
		base := r.SkolemBaseAt(i)
		aux := fmt.Sprintf("exl_%s_%d", base, len(out.Rules))
		auxPreds[aux] = true
		args := make([]ast.Arg, len(frontier))
		for k, v := range frontier {
			args[k] = ast.V(v)
		}
		first := *r
		first.Heads = []ast.Atom{{Pred: aux, Args: args}}
		out.AddRule(&first)
		out.AddRule(&ast.Rule{Body: []ast.Atom{{Pred: aux, Args: args}}, Heads: r.Heads, Skolem: base})
	}
	return out
}

// TagPredName returns the tag-twin predicate name for pred.
func TagPredName(pred string) string { return pred + "__tag" }

// EliminateHarmfulJoinsDynamic rewrites every rule containing a harmful
// join (a join over variables that bind only to labelled nulls) so that
// the join runs over the tag twins of the involved predicates. Tag twins
// hold the canonical ground key of each null (see
// storage.Database.AppendNullKey): two positions carry the same null iff
// their tags are equal, so the rewritten join is equivalent — and
// harmless, because tags are ground.
//
// The engine materializes tag twins as facts are admitted (an auto-insert
// per admitted fact of a tagged predicate), which keeps the twin relation
// exactly synchronized with the admitted chase, including all cuts made by
// the termination strategy. This is the dynamic counterpart of the
// grounding step of the paper's Harmful Joins Elimination: ground values
// act as their own tags, so the Dom-guarded ground copy is subsumed. res is
// p's analysis; when no rule has a harmful join, p itself is returned, and
// otherwise every rule without one is shared with p.
func EliminateHarmfulJoinsDynamic(p *ast.Program, res *analysis.Result) (*ast.Program, map[string]string, []string) {
	tags := make(map[string]string)
	var notes []string
	out := cloneShell(p)
	for i, r := range p.Rules {
		ri := res.Rules[i]
		if !ri.HasHarmfulJoin {
			out.Rules = append(out.Rules, r)
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
		nr := *r
		nr.Body = slices.Clone(r.Body)
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
		out.AddRule(&nr)
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
