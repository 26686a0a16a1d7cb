// Package analysis implements the static analysis of Vadalog programs from
// Section 2 of the paper: affected positions, the harmless / harmful /
// dangerous classification of variables, ward detection and the wardedness
// check, plus the condensation of the predicate dependency graph: its
// strongly connected components in topological order, which of them are
// recursive, and the least strata of stratified negation, all from one
// linear-time pass (Condense). The compile, lint and the wardedness report
// each read that one value.
package analysis

import (
	"fmt"
	"maps"
	"slices"
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
func Analyze(p *ast.Program) *Result { return Reanalyze(p, nil) }

// Reanalyze is Analyze of p, reusing what it can of prior, the analysis of
// an earlier program (nil: nothing). A RuleInfo depends only on its rule
// and on the affected positions, and rules are immutable (ast.Rule), so
// prior's RuleInfo for position i stands when p holds the same rule pointer
// there and the affected positions are the same; every other rule is
// analyzed anew.
func Reanalyze(p *ast.Program, prior *Result) *Result {
	res := &Result{Program: p, Affected: affectedPositions(p), Warded: true}
	reuse := prior != nil && maps.Equal(prior.Affected, res.Affected)
	for i, r := range p.Rules {
		var ri *RuleInfo
		if reuse && i < len(prior.Rules) && prior.Rules[i].Rule == r {
			ri = prior.Rules[i]
		} else {
			ri = analyzeRule(r, res.Affected)
		}
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

// ruleVar is what analyzeRule knows of one variable of a rule's positive
// body: how many distinct positive atoms hold it (last is the latest one
// counted), whether some occurrence sits in a non-affected position, and
// whether it occurs in the head or is grounded by dom(V).
type ruleVar struct {
	name              string
	atoms, last       int
	nonAffected, head bool
	dom               bool
}

// ruleVars returns the variables of r's positive body in order of first
// occurrence, with their facts under the affected positions.
func ruleVars(r *ast.Rule, affected map[Position]bool) []ruleVar {
	n := 0
	for _, a := range r.Body {
		if !a.Negated && a.Pred != ast.DomPred {
			n += len(a.Args)
		}
	}
	vars := make([]ruleVar, 0, n)
	find := func(v string) *ruleVar {
		for i := range vars {
			if vars[i].name == v {
				return &vars[i]
			}
		}
		return nil
	}
	for bi, a := range r.Body {
		if a.Negated || a.Pred == ast.DomPred {
			continue
		}
		for i, arg := range a.Args {
			if !arg.IsVar || arg.Var == "_" {
				continue
			}
			rv := find(arg.Var)
			if rv == nil {
				vars = append(vars, ruleVar{name: arg.Var, last: -1})
				rv = &vars[len(vars)-1]
			}
			if rv.last != bi {
				rv.atoms, rv.last = rv.atoms+1, bi
			}
			if !affected[Position{a.Pred, i}] {
				rv.nonAffected = true
			}
		}
	}
	for _, h := range r.Heads {
		for _, arg := range h.Args {
			if !arg.IsVar {
				continue
			}
			if rv := find(arg.Var); rv != nil {
				rv.head = true
			}
		}
	}
	for _, v := range r.DomVars {
		if rv := find(v); rv != nil {
			rv.dom = true
		}
	}
	return vars
}

func analyzeRule(r *ast.Rule, affected map[Position]bool) *RuleInfo {
	vars := ruleVars(r, affected)
	ri := &RuleInfo{Rule: r, Classes: make(map[string]VarClass, len(vars)), WardIdx: -1}
	var dangerous []string
	for _, rv := range vars {
		c := Harmful
		switch {
		case rv.nonAffected || r.UsesDom || rv.dom:
			c = Harmless
		case rv.head:
			c = Dangerous
			dangerous = append(dangerous, rv.name)
		}
		ri.Classes[rv.name] = c
		// Harmful joins: a harmful (or dangerous) variable occurring in ≥2
		// distinct positive body atoms.
		if c != Harmless && rv.atoms >= 2 {
			ri.HasHarmfulJoin = true
		}
	}

	// Ward detection: all dangerous variables must sit in a single atom,
	// and that atom may share only harmless variables with the rest.
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

// Condensation is the predicate dependency graph — an edge p -> q when some
// rule reads p in its body (negated or not) and derives q — condensed into
// its strongly connected components in one linear pass. Components are
// numbered in topological order: for every edge p -> q, Comp[p] <= Comp[q],
// so the predicates a component reads sit in it or in components before it.
// Every consumer of recursion and stratification reads this one value.
type Condensation struct {
	// Preds names the nodes in order of first mention: rule by rule, each
	// head and then its body atoms, then fact predicates, then tag twins.
	Preds []string
	// Comp is each node's component.
	Comp []int
	// Recursive reports per component whether it has a cycle: two or more
	// predicates, or one predicate that reads itself.
	Recursive []bool
	// Stratum is each component's stratum: the longest path into it over the
	// condensation, where a negative edge counts 1 and a positive one 0. The
	// strata are the least ones that stratify the program.
	Stratum []int
	// Unstratified lists, sorted, the negated predicates that stay inside
	// their own component: negation through recursion, which has no
	// stratified model.
	Unstratified []string

	index map[string]int
	out   [][]Edge // per node, its out-edges in rule order
}

// Edge is a dependency edge to node To; Neg marks a negated body atom.
type Edge struct {
	To  int
	Neg bool
}

// Condense builds the condensation of p's dependency graph. twins maps a
// predicate to its tag twin (rewrite.Result.TagPreds; nil for a program as
// written): the engine, not a rule, inserts a twin's facts, so each twin is
// derived from its predicate by an edge of its own.
func Condense(p *ast.Program, twins map[string]string) *Condensation {
	c := &Condensation{index: make(map[string]int)}
	for _, r := range p.Rules {
		for _, h := range r.Heads {
			hv := c.node(h.Pred)
			for _, b := range r.Body {
				if b.Pred == ast.DomPred {
					continue
				}
				bv := c.node(b.Pred)
				c.out[bv] = append(c.out[bv], Edge{To: hv, Neg: b.Negated})
			}
		}
	}
	for _, f := range p.Facts {
		c.node(f.Pred)
	}
	for v, n := 0, len(c.Preds); v < n; v++ {
		if twin, ok := twins[c.Preds[v]]; ok {
			tv := c.node(twin)
			c.out[v] = append(c.out[v], Edge{To: tv})
		}
	}
	popped := c.tarjan()
	// Tarjan pops every component after all the components it reaches, so
	// the pops read backwards visit components in topological order: a
	// component's stratum is final before it is pushed along its out-edges.
	c.Stratum = make([]int, len(c.Recursive))
	bad := make([]bool, len(c.Preds))
	for i := len(popped) - 1; i >= 0; i-- {
		v := popped[i]
		cv := c.Comp[v]
		for _, e := range c.out[v] {
			ce := c.Comp[e.To]
			if ce == cv {
				c.Recursive[cv] = true
				bad[v] = bad[v] || e.Neg
				continue
			}
			s := c.Stratum[cv]
			if e.Neg {
				s++
			}
			c.Stratum[ce] = max(c.Stratum[ce], s)
		}
	}
	for v, b := range bad {
		if b {
			c.Unstratified = append(c.Unstratified, c.Preds[v])
		}
	}
	sort.Strings(c.Unstratified)
	return c
}

// node returns pred's node, adding it on first mention.
func (c *Condensation) node(pred string) int {
	v, ok := c.index[pred]
	if !ok {
		v = len(c.Preds)
		c.index[pred] = v
		c.Preds = append(c.Preds, pred)
		c.out = append(c.out, nil)
	}
	return v
}

// tarjan assigns Comp, numbering components in topological order, sizes
// Recursive, and returns the nodes in the order Tarjan's algorithm pops
// them. It is iterative, so deep graphs do not grow the goroutine stack.
func (c *Condensation) tarjan() []int {
	n := len(c.Preds)
	index := make([]int, n) // visit order + 1; 0 = unvisited
	low := make([]int, n)
	onStack := make([]bool, n)
	c.Comp = make([]int, n)
	stack := make([]int, 0, n)
	popped := make([]int, 0, n)
	type frame struct{ v, next int }
	var frames []frame
	visited, comps := 0, 0
	visit := func(v int) {
		visited++
		index[v], low[v] = visited, visited
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{v: v})
	}
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		visit(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(c.out[f.v]) {
				w := c.out[f.v][f.next].To
				f.next++
				if index[w] == 0 {
					visit(w)
				} else if onStack[w] {
					low[f.v] = min(low[f.v], index[w])
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				low[parent] = min(low[parent], low[v])
			}
			if low[v] != index[v] {
				continue
			}
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				c.Comp[w] = comps // reverse topological for now
				popped = append(popped, w)
				if w == v {
					break
				}
			}
			comps++
		}
	}
	for v := range c.Comp {
		c.Comp[v] = comps - 1 - c.Comp[v]
	}
	c.Recursive = make([]bool, comps)
	return popped
}

// Out returns node v's out-edges, in rule order.
func (c *Condensation) Out(v int) []Edge { return c.out[v] }

// InCycle reports whether pred lies on a dependency cycle.
func (c *Condensation) InCycle(pred string) bool {
	v, ok := c.index[pred]
	return ok && c.Recursive[c.Comp[v]]
}

// Strata maps every node to its stratum.
func (c *Condensation) Strata() map[string]int {
	out := make(map[string]int, len(c.Preds))
	for v, pred := range c.Preds {
		out[pred] = c.Stratum[c.Comp[v]]
	}
	return out
}

// ReachesNegation returns the predicates with a dependency path to a
// negated predicate (one a negated body atom reads), the negated ones
// included: a new fact of such a predicate can change what a negation
// has already seen.
func (c *Condensation) ReachesNegation() map[string]bool {
	// Every edge stays in its component or enters a later one, so visiting
	// the nodes by descending component settles each target component
	// before any node reading it.
	order := make([]int, len(c.Preds))
	for v := range order {
		order[v] = v
	}
	slices.SortFunc(order, func(u, v int) int { return c.Comp[v] - c.Comp[u] })
	reach := make([]bool, len(c.Recursive))
	for _, v := range order {
		cv := c.Comp[v]
		for _, e := range c.out[v] {
			reach[cv] = reach[cv] || e.Neg || reach[c.Comp[e.To]]
		}
	}
	out := make(map[string]bool)
	for v, pred := range c.Preds {
		if reach[c.Comp[v]] {
			out[pred] = true
		}
	}
	return out
}

// Err reports negation through recursion, naming the negated predicates in
// sorted order; nil when the program is stratified.
func (c *Condensation) Err() error {
	if len(c.Unstratified) == 0 {
		return nil
	}
	return fmt.Errorf("analysis: negation through recursive predicate %s is not stratified", strings.Join(c.Unstratified, ", "))
}

// Stratify computes a stratification of the program's predicates under
// stratified negation: pred -> stratum (0-based), the least strata there
// are. It returns an error when negation occurs inside a recursive cycle.
func Stratify(p *ast.Program) (map[string]int, error) {
	c := Condense(p, nil)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c.Strata(), nil
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

// ComputeStats derives Fig.6-style statistics for the program res analyzed,
// taking recursion from its condensation g.
func ComputeStats(res *Result, g *Condensation) Stats {
	var st Stats
	for i, r := range res.Program.Rules {
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
			if g.InCycle(b.Pred) {
				for _, h := range r.Heads {
					if g.InCycle(h.Pred) {
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
