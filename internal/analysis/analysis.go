// Package analysis implements the static analysis of Vadalog programs from
// Section 2 of the paper: affected positions, the harmless / harmful /
// dangerous classification of variables, ward detection and the wardedness
// check, plus the predicate dependency graph with SCC-based recursion
// detection and stratification of negation.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// Position identifies the i-th argument position of a predicate, written
// p[i] in the paper (0-based here).
type Position struct {
	Pred string
	Idx  int
}

// String renders the position as p[i].
func (p Position) String() string { return fmt.Sprintf("%s[%d]", p.Pred, p.Idx) }

// VarClass classifies a variable within one rule (paper Sec. 2.1).
type VarClass int

// Variable classes. Dangerous implies harmful.
const (
	Harmless  VarClass = iota // some body occurrence in a non-affected position
	Harmful                   // all body occurrences in affected positions
	Dangerous                 // harmful and also occurs in the head
)

// String renders the class name.
func (c VarClass) String() string {
	switch c {
	case Harmless:
		return "harmless"
	case Harmful:
		return "harmful"
	case Dangerous:
		return "dangerous"
	default:
		return "?"
	}
}

// RuleInfo is the per-rule result of the warded analysis.
type RuleInfo struct {
	Rule    *ast.Rule
	Classes map[string]VarClass
	// WardIdx is the index in Rule.Body of the ward atom when the rule has
	// dangerous variables and is warded; -1 otherwise.
	WardIdx int
	// HasHarmfulJoin reports whether some harmful variable occurs in two or
	// more distinct positive body atoms.
	HasHarmfulJoin bool
	// Kind is the generating-rule kind used by the termination strategy.
	Kind RuleKind
	// Violations lists why the rule breaks wardedness (empty if warded).
	Violations []string
}

// RuleKind is the classification used by Algorithm 1's fact structure:
// linear rules, warded rules (non-linear with a ward propagating a
// dangerous variable), and other non-linear rules.
type RuleKind int

// Rule kinds per Sec. 3.4.
const (
	KindLinear RuleKind = iota
	KindWarded          // non-linear join with dangerous variables confined to a ward
	KindNonLinear
)

// String renders the kind name.
func (k RuleKind) String() string {
	switch k {
	case KindLinear:
		return "linear"
	case KindWarded:
		return "warded"
	case KindNonLinear:
		return "non-linear"
	default:
		return "?"
	}
}

// Result is the whole-program analysis output.
type Result struct {
	Program  *ast.Program
	Affected map[Position]bool
	Rules    []*RuleInfo
	// Warded reports whether every rule satisfies the wardedness conditions.
	Warded bool
	// Violations aggregates all per-rule violations.
	Violations []string
}

// Analyze computes affected positions, per-rule variable classes, wards
// and the wardedness verdict for the program.
func Analyze(p *ast.Program) *Result {
	res := &Result{Program: p, Affected: affectedPositions(p), Warded: true}
	for _, r := range p.Rules {
		ri := analyzeRule(r, res.Affected)
		res.Rules = append(res.Rules, ri)
		if len(ri.Violations) > 0 {
			res.Warded = false
			res.Violations = append(res.Violations, ri.Violations...)
		}
	}
	return res
}

// affectedPositions computes the affected(Σ) fixpoint of Sec. 2.1:
//  1. every position holding an existentially quantified head variable is
//     affected;
//  2. if a rule propagates a variable occurring only in affected body
//     positions into a head position, that head position is affected.
func affectedPositions(p *ast.Program) map[Position]bool {
	affected := make(map[Position]bool)
	for _, r := range p.Rules {
		ex := make(map[string]bool)
		for _, v := range r.Existentials() {
			ex[v] = true
		}
		for _, h := range r.Heads {
			for i, arg := range h.Args {
				if arg.IsVar && ex[arg.Var] {
					affected[Position{h.Pred, i}] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			// Classify each body variable: does it occur in at least one
			// non-affected body position?
			allAffected := make(map[string]bool)
			seen := make(map[string]bool)
			for _, a := range r.Body {
				if a.Negated || a.Pred == ast.DomPred {
					continue
				}
				for i, arg := range a.Args {
					if !arg.IsVar || arg.Var == "_" {
						continue
					}
					v := arg.Var
					aff := affected[Position{a.Pred, i}]
					if !seen[v] {
						seen[v] = true
						allAffected[v] = aff
					} else if !aff {
						allAffected[v] = false
					}
				}
			}
			// Dom(*) grounds every variable: rules guarded by dom(*) bind
			// variables only to active-domain constants, so nothing
			// propagates nulls through them. dom(V) grounds V alone.
			if r.UsesDom {
				continue
			}
			for _, v := range r.DomVars {
				allAffected[v] = false
			}
			for _, h := range r.Heads {
				for i, arg := range h.Args {
					if !arg.IsVar {
						continue
					}
					if seen[arg.Var] && allAffected[arg.Var] {
						pos := Position{h.Pred, i}
						if !affected[pos] {
							affected[pos] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return affected
}

func analyzeRule(r *ast.Rule, affected map[Position]bool) *RuleInfo {
	ri := &RuleInfo{Rule: r, Classes: make(map[string]VarClass), WardIdx: -1}

	// Occurrence map: variable -> body atom indexes (positive atoms only).
	occ := make(map[string][]int)
	inNonAffected := make(map[string]bool)
	for bi, a := range r.Body {
		if a.Negated || a.Pred == ast.DomPred {
			continue
		}
		for i, arg := range a.Args {
			if !arg.IsVar || arg.Var == "_" {
				continue
			}
			v := arg.Var
			if len(occ[v]) == 0 || occ[v][len(occ[v])-1] != bi {
				occ[v] = append(occ[v], bi)
			}
			if !affected[Position{a.Pred, i}] {
				inNonAffected[v] = true
			}
		}
	}
	headVars := make(map[string]bool)
	for _, v := range r.HeadVars() {
		headVars[v] = true
	}
	domGround := make(map[string]bool, len(r.DomVars))
	for _, v := range r.DomVars {
		domGround[v] = true
	}
	for v := range occ {
		switch {
		case inNonAffected[v] || r.UsesDom || domGround[v]:
			ri.Classes[v] = Harmless
		case headVars[v]:
			ri.Classes[v] = Dangerous
		default:
			ri.Classes[v] = Harmful
		}
	}

	// Harmful joins: a harmful (or dangerous) variable occurring in ≥2
	// distinct positive body atoms.
	for v, atoms := range occ {
		if ri.Classes[v] != Harmless && len(atoms) >= 2 {
			ri.HasHarmfulJoin = true
		}
	}

	// Ward detection: all dangerous variables must sit in a single atom,
	// and that atom may share only harmless variables with the rest.
	var dangerous []string
	for v, c := range ri.Classes {
		if c == Dangerous {
			dangerous = append(dangerous, v)
		}
	}
	sort.Strings(dangerous)
	if len(dangerous) > 0 {
		wardIdx := -1
		for _, v := range dangerous {
			cands := candidateAtoms(r, v)
			if len(cands) != 1 {
				ri.Violations = append(ri.Violations,
					fmt.Sprintf("rule %d: dangerous variable %s occurs in %d body atoms", r.ID, v, len(cands)))
				wardIdx = -2
				break
			}
			if wardIdx == -1 {
				wardIdx = cands[0]
			} else if wardIdx != cands[0] {
				ri.Violations = append(ri.Violations,
					fmt.Sprintf("rule %d: dangerous variables spread over multiple atoms", r.ID))
				wardIdx = -2
				break
			}
		}
		if wardIdx >= 0 {
			// The ward may share only harmless variables with other atoms.
			ok := true
			ward := r.Body[wardIdx]
			wardVars := make(map[string]bool)
			for _, arg := range ward.Args {
				if arg.IsVar && arg.Var != "_" {
					wardVars[arg.Var] = true
				}
			}
			for bi, a := range r.Body {
				if bi == wardIdx || a.Negated || a.Pred == ast.DomPred {
					continue
				}
				for _, arg := range a.Args {
					if arg.IsVar && wardVars[arg.Var] && ri.Classes[arg.Var] != Harmless {
						ri.Violations = append(ri.Violations,
							fmt.Sprintf("rule %d: ward %s shares non-harmless variable %s with %s",
								r.ID, ward.Pred, arg.Var, a.Pred))
						ok = false
					}
				}
			}
			if ok {
				ri.WardIdx = wardIdx
			}
		}
	}

	switch {
	case r.IsLinear():
		ri.Kind = KindLinear
	case ri.WardIdx >= 0:
		ri.Kind = KindWarded
	default:
		ri.Kind = KindNonLinear
	}
	return ri
}

// candidateAtoms returns the indexes of positive body atoms containing v.
func candidateAtoms(r *ast.Rule, v string) []int {
	var out []int
	for bi, a := range r.Body {
		if a.Negated || a.Pred == ast.DomPred {
			continue
		}
		for _, arg := range a.Args {
			if arg.IsVar && arg.Var == v {
				out = append(out, bi)
				break
			}
		}
	}
	return out
}

// DependencyGraph is the predicate dependency graph: an edge p -> q when
// some rule has p in the body and q in the head. Negative edges are
// tracked separately for stratification.
type DependencyGraph struct {
	Preds    []string
	Edges    map[string]map[string]bool // body pred -> head preds
	NegEdges map[string]map[string]bool // negated body pred -> head preds
}

// BuildDependencyGraph constructs the graph for p.
func BuildDependencyGraph(p *ast.Program) *DependencyGraph {
	g := &DependencyGraph{
		Edges:    make(map[string]map[string]bool),
		NegEdges: make(map[string]map[string]bool),
	}
	predSet := make(map[string]bool)
	note := func(pred string) {
		if !predSet[pred] {
			predSet[pred] = true
			g.Preds = append(g.Preds, pred)
		}
	}
	for _, r := range p.Rules {
		for _, h := range r.Heads {
			note(h.Pred)
			for _, b := range r.Body {
				if b.Pred == ast.DomPred {
					continue
				}
				note(b.Pred)
				dst := g.Edges
				if b.Negated {
					dst = g.NegEdges
				}
				if dst[b.Pred] == nil {
					dst[b.Pred] = make(map[string]bool)
				}
				dst[b.Pred][h.Pred] = true
			}
		}
	}
	for _, f := range p.Facts {
		note(f.Pred)
	}
	sort.Strings(g.Preds)
	return g
}

// SCCs returns the strongly connected components of the positive+negative
// dependency graph using Tarjan's algorithm. Components are emitted
// downstream-first: every component appears before the components whose
// facts feed it (a component's successors — the heads it derives — are
// emitted earlier).
func (g *DependencyGraph) SCCs() [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	counter := 0

	succ := func(p string) []string {
		var out []string
		for q := range g.Edges[p] {
			out = append(out, q)
		}
		for q := range g.NegEdges[p] {
			out = append(out, q)
		}
		sort.Strings(out)
		return out
	}

	// Iterative Tarjan to survive deep graphs.
	type frame struct {
		node  string
		succs []string
		next  int
	}
	var strongconnect func(root string)
	strongconnect = func(root string) {
		frames := []frame{{node: root, succs: succ(root)}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.next < len(f.succs) {
				w := f.succs[f.next]
				f.next++
				if _, seen := index[w]; !seen {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w, succs: succ(w)})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
			}
			if advanced {
				continue
			}
			// Pop f.
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.node] {
					low[parent.node] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Strings(comp)
				sccs = append(sccs, comp)
			}
		}
	}
	for _, p := range g.Preds {
		if _, seen := index[p]; !seen {
			strongconnect(p)
		}
	}
	return sccs
}

// RecursivePreds returns the predicates involved in recursion: members of
// a multi-node SCC or with a self-loop.
func (g *DependencyGraph) RecursivePreds() map[string]bool {
	rec := make(map[string]bool)
	for _, comp := range g.SCCs() {
		if len(comp) > 1 {
			for _, p := range comp {
				rec[p] = true
			}
		} else if p := comp[0]; g.Edges[p][p] || g.NegEdges[p][p] {
			rec[p] = true
		}
	}
	return rec
}

// Stratify computes a stratification of the program's predicates under
// stratified negation: pred -> stratum (0-based). It returns an error when
// negation occurs inside a recursive cycle.
func Stratify(p *ast.Program) (map[string]int, error) {
	g := BuildDependencyGraph(p)
	sccs := g.SCCs()
	comp := make(map[string]int)
	for i, c := range sccs {
		for _, pred := range c {
			comp[pred] = i
		}
	}
	// Negation within an SCC is unstratifiable. The offending negated
	// predicates are named in sorted order, so the error is the same on
	// every run.
	var bad []string
	for from, tos := range g.NegEdges {
		for to := range tos {
			if comp[from] == comp[to] {
				bad = append(bad, from)
				break
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("analysis: negation through recursive predicate %s is not stratified", strings.Join(bad, ", "))
	}
	// Longest-path strata over the SCC condensation: stratum(head SCC) ≥
	// stratum(body SCC), strictly greater across negation. Tarjan emits
	// downstream components first, so iterate in reverse (bodies before
	// heads) for a single pass.
	strata := make([]int, len(sccs))
	for i := len(sccs) - 1; i >= 0; i-- {
		s := 0
		// Consider incoming edges: body pred -> head pred where head in c.
		for from, tos := range g.Edges {
			for to := range tos {
				if comp[to] == i && comp[from] != i && strata[comp[from]] > s {
					s = strata[comp[from]]
				}
			}
		}
		for from, tos := range g.NegEdges {
			for to := range tos {
				if comp[to] == i && strata[comp[from]]+1 > s {
					s = strata[comp[from]] + 1
				}
			}
		}
		strata[i] = s
	}
	out := make(map[string]int, len(comp))
	for pred, ci := range comp {
		out[pred] = strata[ci]
	}
	return out, nil
}

// Stats summarizes a program the way Figure 6 of the paper tabulates
// iWarded scenarios. Join rules are categorized by their most severe join
// variable: a variable whose occurrences are all in affected positions
// makes the join harmful-harmful (hrmf⋈hrmf); one with both affected and
// non-affected occurrences makes it mixed (hrml⋈hrmf, firing on ground
// values only); otherwise the join is harmless-harmless, split by whether
// the rule has a ward.
type Stats struct {
	LinearRules      int
	JoinRules        int // non-linear ("1 rules" in Fig. 6)
	RecursiveLinear  int
	RecursiveJoin    int
	ExistentialRules int
	MixedJoins       int // hrml⋈hrmf: affected + non-affected occurrences
	HarmlessWithWard int // hrml⋈hrml where the rule has a ward
	HarmlessNoWard   int // hrml⋈hrml with no ward involved
	HarmfulJoins     int // hrmf⋈hrmf: all occurrences affected
	Constraints      int
	EGDs             int
	Aggregations     int
}

// ComputeStats derives Fig.6-style statistics for a program.
func ComputeStats(p *ast.Program) Stats {
	var st Stats
	res := Analyze(p)
	g := BuildDependencyGraph(p)
	rec := g.RecursivePreds()
	for i, r := range p.Rules {
		ri := res.Rules[i]
		if r.IsConstraint {
			st.Constraints++
			continue
		}
		if r.EGD != nil {
			st.EGDs++
			continue
		}
		if r.Aggregate != nil {
			st.Aggregations++
		}
		isRec := false
		for _, b := range r.Body {
			if b.Negated || b.Pred == ast.DomPred {
				continue
			}
			if rec[b.Pred] {
				for _, h := range r.Heads {
					if rec[h.Pred] {
						isRec = true
					}
				}
			}
		}
		if len(r.Existentials()) > 0 {
			st.ExistentialRules++
		}
		if r.IsLinear() {
			st.LinearRules++
			if isRec {
				st.RecursiveLinear++
			}
			continue
		}
		st.JoinRules++
		if isRec {
			st.RecursiveJoin++
		}
		switch classifyJoin(r, res.Affected) {
		case joinHarmful:
			st.HarmfulJoins++
		case joinMixed:
			st.MixedJoins++
		default:
			if ri.WardIdx >= 0 {
				st.HarmlessWithWard++
			} else {
				st.HarmlessNoWard++
			}
		}
	}
	return st
}

type joinClass int

const (
	joinHarmless joinClass = iota
	joinMixed
	joinHarmful
)

// classifyJoin inspects the variables shared between positive body atoms
// and returns the most severe class among them.
func classifyJoin(r *ast.Rule, affected map[Position]bool) joinClass {
	type occ struct {
		atoms           map[int]bool
		inAff, inNonAff bool
	}
	occs := make(map[string]*occ)
	for bi, a := range r.Body {
		if a.Negated || a.Pred == ast.DomPred {
			continue
		}
		for i, arg := range a.Args {
			if !arg.IsVar || arg.Var == "_" {
				continue
			}
			o := occs[arg.Var]
			if o == nil {
				o = &occ{atoms: make(map[int]bool)}
				occs[arg.Var] = o
			}
			o.atoms[bi] = true
			if affected[Position{a.Pred, i}] {
				o.inAff = true
			} else {
				o.inNonAff = true
			}
		}
	}
	cls := joinHarmless
	for _, o := range occs {
		if len(o.atoms) < 2 {
			continue
		}
		switch {
		case o.inAff && !o.inNonAff:
			return joinHarmful
		case o.inAff && o.inNonAff:
			cls = joinMixed
		}
	}
	return cls
}
