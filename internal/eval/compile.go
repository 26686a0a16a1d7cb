// Package eval compiles Vadalog rules into slot-based executable plans and
// implements body matching against the indexed store (the slot machine
// join of paper Sec. 4), head instantiation with deterministic Skolem
// nulls, monotonic aggregation state, and the null substitution used for
// equality-generating dependencies.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/term"
)

// CAtom is a body or head atom compiled to slots.
type CAtom struct {
	Pred  string
	IsVar []bool
	Slot  []int        // slot per position (valid when IsVar)
	Const []term.Value // constant per position (valid when !IsVar)
	// BodyIdx is the index of this atom in Rule.Body (body atoms only).
	BodyIdx int
}

func (a *CAtom) arity() int { return len(a.IsVar) }

// Arity returns the number of argument positions of the compiled atom.
func (a *CAtom) Arity() int { return len(a.IsVar) }

// CAssign is a compiled assignment Var = expr; Skolem calls are flagged so
// the engine can route them through the null factory.
type CAssign struct {
	Slot     int
	Expr     ast.Expr
	Deps     []int // slots read by Expr
	IsSkolem bool
	SkName   string
	SkArgs   []ast.Expr
}

// CCond is a compiled condition with its slot dependencies. Conditions
// whose sides are a plain variable or constant take a fast path that
// avoids materializing an environment map.
type CCond struct {
	Cond ast.Condition
	Deps []int

	Fast           bool
	LSlot, RSlot   int // slot index, or -1 when the side is a constant
	LConst, RConst term.Value
}

// compileFast recognizes var/const comparison sides.
func (c *CCond) compileFast(varSlot map[string]int) {
	side := func(e ast.Expr) (int, term.Value, bool) {
		switch ex := e.(type) {
		case ast.VarExpr:
			if s, ok := varSlot[ex.Name]; ok {
				return s, term.Value{}, true
			}
		case ast.ConstExpr:
			return -1, ex.Val, true
		}
		return 0, term.Value{}, false
	}
	ls, lc, lok := side(c.Cond.L)
	rs, rc, rok := side(c.Cond.R)
	if lok && rok {
		c.Fast = true
		c.LSlot, c.LConst = ls, lc
		c.RSlot, c.RConst = rs, rc
	}
}

// EvalFast evaluates a fast-path condition against the binding's slots,
// decoding interned IDs to values only for the two sides involved.
func (c *CCond) EvalFast(b *Binding) bool {
	l, r := c.LConst, c.RConst
	if c.LSlot >= 0 {
		l = b.Val(c.LSlot)
	}
	if c.RSlot >= 0 {
		r = b.Val(c.RSlot)
	}
	if l.IsNull() || r.IsNull() {
		switch c.Cond.Op {
		case ast.CmpEq:
			return l == r
		case ast.CmpNeq:
			return l != r
		default:
			return false // ordering undefined on labelled nulls
		}
	}
	switch c.Cond.Op {
	case ast.CmpEq:
		return term.Equal(l, r)
	case ast.CmpNeq:
		return !term.Equal(l, r)
	case ast.CmpLt:
		return term.Compare(l, r) < 0
	case ast.CmpLe:
		return term.Compare(l, r) <= 0
	case ast.CmpGt:
		return term.Compare(l, r) > 0
	case ast.CmpGe:
		return term.Compare(l, r) >= 0
	}
	return false
}

// CAgg is a compiled monotonic aggregation. ArgSlot is the fast path for
// the common case where the aggregated expression is a plain variable.
type CAgg struct {
	ResultSlot   int
	Func         string
	Arg          ast.Expr
	ArgSlot      int // ≥0 when Arg is a plain variable
	ArgDeps      []int
	ContribSlots []int
	GroupSlots   []int

	// SkipSafe reports that a non-improving Update can skip emission
	// entirely: the rule mints no existential nulls and every condition
	// reading the aggregate result depends only on the result and the
	// group-by slots, so a non-improving match evaluates exactly like the
	// improving one that already emitted. When false the engines must run
	// the full emission path even for non-improving matches (a condition
	// over another body variable may pass now although it failed then).
	SkipSafe bool
}

// Step is one element of the execution schedule produced at compile time:
// match an atom, evaluate an assignment, or test a condition.
type Step struct {
	Kind  StepKind
	Index int // atom index (Pos), assignment index, or condition index
}

// StepKind discriminates schedule steps.
type StepKind int

// Schedule step kinds.
const (
	StepMatch StepKind = iota
	StepAssign
	StepCond
)

// ExistSlot describes how one existential head variable is instantiated:
// a deterministic Skolem application over the rule's universal variables.
type ExistSlot struct {
	Var      string
	Slot     int
	SkName   string
	ArgSlots []int
}

// CompiledRule is an executable plan for one rule.
type CompiledRule struct {
	Rule *ast.Rule
	Info *analysis.RuleInfo

	VarSlot map[string]int
	// SlotVar is the inverse of VarSlot: the variable name per slot, used
	// to materialize dependency-restricted expression environments without
	// walking the whole variable map.
	SlotVar []string
	NSlots  int

	Pos []CAtom // positive, non-dom body atoms in source order
	Neg []CAtom

	// WardPos is the index in Pos of the ward atom for warded rules, else -1.
	WardPos int

	Assigns []CAssign
	Conds   []CCond
	Agg     *CAgg

	Heads  []CAtom
	Exists []ExistSlot

	// DomSlots lists the body-variable slots that dom(*) restricts to the
	// active domain.
	DomSlots []int

	// schedules[i] is the execution schedule when Pos[i] is the pinned
	// (delta) atom; schedules[len(Pos)] is the schedule with no pin
	// (full evaluation), used by naive engines.
	schedules [][]Step
}

// Compile translates rule (with its analysis info) into an executable plan.
func Compile(rule *ast.Rule, info *analysis.RuleInfo) (*CompiledRule, error) {
	cr := &CompiledRule{Rule: rule, Info: info, VarSlot: make(map[string]int), WardPos: -1}
	slot := func(v string) int {
		s, ok := cr.VarSlot[v]
		if !ok {
			s = cr.NSlots
			cr.VarSlot[v] = s
			cr.SlotVar = append(cr.SlotVar, v)
			cr.NSlots++
		}
		return s
	}

	compileAtom := func(a ast.Atom, bodyIdx int) CAtom {
		ca := CAtom{Pred: a.Pred, BodyIdx: bodyIdx,
			IsVar: make([]bool, len(a.Args)),
			Slot:  make([]int, len(a.Args)),
			Const: make([]term.Value, len(a.Args))}
		for i, arg := range a.Args {
			if arg.IsVar && arg.Var != "_" {
				ca.IsVar[i] = true
				ca.Slot[i] = slot(arg.Var)
			} else if arg.IsVar { // anonymous: give it a throwaway slot
				ca.IsVar[i] = true
				ca.Slot[i] = slot(fmt.Sprintf("_anon%d_%d", bodyIdx, i))
			} else {
				ca.Const[i] = arg.Const
			}
		}
		return ca
	}

	for bi, a := range rule.Body {
		if a.Pred == ast.DomPred {
			continue
		}
		if a.Negated {
			continue // compiled after positives so slots for shared vars exist
		}
		ca := compileAtom(a, bi)
		if info.WardIdx == bi {
			cr.WardPos = len(cr.Pos)
		}
		cr.Pos = append(cr.Pos, ca)
	}
	for bi, a := range rule.Body {
		if a.Negated {
			cr.Neg = append(cr.Neg, compileAtom(a, bi))
		}
	}

	slotsOf := func(vars []string) []int {
		out := make([]int, 0, len(vars))
		for _, v := range vars {
			out = append(out, slot(v))
		}
		return out
	}

	for _, asg := range rule.Assignments {
		ca := CAssign{Slot: slot(asg.Var), Expr: asg.Expr, Deps: slotsOf(asg.Expr.Vars(nil))}
		if fe, ok := asg.Expr.(ast.FuncExpr); ok && fe.IsSkolem() {
			ca.IsSkolem = true
			ca.SkName = fe.Name
			ca.SkArgs = fe.Args
		}
		cr.Assigns = append(cr.Assigns, ca)
	}
	for _, c := range rule.Conds {
		cc := CCond{Cond: c, Deps: slotsOf(c.L.Vars(c.R.Vars(nil)))}
		cc.compileFast(cr.VarSlot)
		cr.Conds = append(cr.Conds, cc)
	}
	if rule.Aggregate != nil {
		ag := rule.Aggregate
		ca := &CAgg{
			ResultSlot:   slot(ag.Result),
			Func:         ag.Func,
			Arg:          ag.Arg,
			ArgSlot:      -1,
			ArgDeps:      slotsOf(ag.Arg.Vars(nil)),
			ContribSlots: slotsOf(ag.Contributors),
		}
		if ve, ok := ag.Arg.(ast.VarExpr); ok {
			ca.ArgSlot = slot(ve.Name)
		}
		// Group-by arguments: bound head variables other than the result.
		bound := rule.BoundVars()
		seen := map[string]bool{ag.Result: true}
		for _, v := range rule.HeadVars() {
			if bound[v] && !seen[v] {
				seen[v] = true
				ca.GroupSlots = append(ca.GroupSlots, slot(v))
			}
		}
		ca.SkipSafe = len(rule.Existentials()) == 0
		if ca.SkipSafe {
			safe := map[int]bool{ca.ResultSlot: true}
			for _, s := range ca.GroupSlots {
				safe[s] = true
			}
			for _, cc := range cr.Conds {
				readsAgg := false
				for _, d := range cc.Deps {
					if d == ca.ResultSlot {
						readsAgg = true
					}
				}
				if !readsAgg {
					continue // evaluated in-schedule, before aggregation
				}
				for _, d := range cc.Deps {
					if !safe[d] {
						ca.SkipSafe = false
					}
				}
			}
		}
		cr.Agg = ca
	}

	// Existential head variables: deterministic Skolem over the rule's
	// universal (body) variables, named after the rule's Skolem base so
	// that rewritten/split rules can share null identities.
	exVars := rule.Existentials()
	if len(exVars) > 0 {
		bodyVars := rule.BodyVars()
		sort.Strings(bodyVars)
		argSlots := slotsOf(bodyVars)
		base := rule.SkolemBase()
		for _, v := range exVars {
			cr.Exists = append(cr.Exists, ExistSlot{
				Var:      v,
				Slot:     slot(v),
				SkName:   "#" + base + ":" + v,
				ArgSlots: argSlots,
			})
		}
	}

	for _, h := range rule.Heads {
		cr.Heads = append(cr.Heads, compileAtom(h, -1))
	}

	if rule.UsesDom {
		seen := make(map[int]bool)
		for _, a := range cr.Pos {
			for i, isv := range a.IsVar {
				if isv && !seen[a.Slot[i]] {
					seen[a.Slot[i]] = true
					cr.DomSlots = append(cr.DomSlots, a.Slot[i])
				}
			}
		}
	}
	for _, v := range rule.DomVars {
		if s, ok := cr.VarSlot[v]; ok {
			cr.DomSlots = append(cr.DomSlots, s)
		}
	}

	cr.buildSchedules()
	return cr, nil
}

// buildSchedules precomputes, for each pinned atom (and for the unpinned
// case), a greedy execution order: assignments and conditions run as soon
// as their dependencies are bound (selection push-down), and the next atom
// to match is the one with the most already-bound positions (join
// reordering) — the paper's execution-optimizer behaviour.
func (cr *CompiledRule) buildSchedules() {
	n := len(cr.Pos)
	cr.schedules = make([][]Step, n+1)
	for pinned := 0; pinned <= n; pinned++ {
		cr.schedules[pinned] = cr.buildSchedule(pinned)
	}
}

func (cr *CompiledRule) buildSchedule(pinned int) []Step {
	return cr.scheduleWith(pinned, nil)
}

// Schedule returns the compiled static schedule for the given pinned
// atom (len(Pos) selects the unpinned schedule). The slice is shared;
// callers must not modify it.
func (cr *CompiledRule) Schedule(pinned int) []Step { return cr.schedules[pinned] }

// ScheduleFor builds an execution schedule that matches the positive
// body atoms in the given order (the non-pinned atom indexes, each
// exactly once), interleaving assignments and conditions as soon as
// their dependencies are bound — the same selection push-down the static
// schedule applies. It is the seam the cost-based planner emits plans
// through: the planner chooses only the join order, the compiler owns
// step assembly.
func (cr *CompiledRule) ScheduleFor(pinned int, order []int) []Step {
	return cr.scheduleWith(pinned, order)
}

// scheduleWith assembles a schedule visiting atoms in the explicit order
// when non-nil, else by the static most-bound-positions greedy.
func (cr *CompiledRule) scheduleWith(pinned int, order []int) []Step {
	n := len(cr.Pos)
	bound := make([]bool, cr.NSlots)
	matched := make([]bool, n)
	asgDone := make([]bool, len(cr.Assigns))
	condDone := make([]bool, len(cr.Conds))
	var steps []Step

	bindAtom := func(i int) {
		for p, isv := range cr.Pos[i].IsVar {
			if isv {
				bound[cr.Pos[i].Slot[p]] = true
			}
		}
	}
	allBound := func(deps []int) bool {
		for _, s := range deps {
			if !bound[s] {
				return false
			}
		}
		return true
	}
	aggSlot := -1
	if cr.Agg != nil {
		aggSlot = cr.Agg.ResultSlot
	}
	flush := func() {
		for progress := true; progress; {
			progress = false
			for i, a := range cr.Assigns {
				if !asgDone[i] && allBound(a.Deps) {
					asgDone[i] = true
					bound[a.Slot] = true
					steps = append(steps, Step{StepAssign, i})
					progress = true
				}
			}
			for i, c := range cr.Conds {
				if condDone[i] || !allBound(c.Deps) {
					continue
				}
				// Conditions reading the aggregate result wait for the
				// aggregation step performed by the engine after matching.
				readsAgg := false
				if aggSlot >= 0 {
					for _, d := range c.Deps {
						if d == aggSlot {
							readsAgg = true
						}
					}
				}
				if readsAgg {
					continue
				}
				condDone[i] = true
				steps = append(steps, Step{StepCond, i})
				progress = true
			}
		}
	}

	pick := func() int {
		if order != nil {
			for _, i := range order {
				if i >= 0 && i < n && !matched[i] {
					return i
				}
			}
			// An incomplete explicit order falls through to the greedy
			// picker so the schedule always covers every atom.
		}
		best, bestScore := -1, -1
		for i := range cr.Pos {
			if matched[i] {
				continue
			}
			score := 0
			for p, isv := range cr.Pos[i].IsVar {
				if !isv || bound[cr.Pos[i].Slot[p]] {
					score++
				}
			}
			// Strict > breaks ties toward the earliest source-order atom —
			// the documented fallback order the planner is measured against.
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		return best
	}

	if pinned < n {
		matched[pinned] = true
		bindAtom(pinned)
	}
	flush()
	for {
		best := pick()
		if best == -1 {
			break
		}
		matched[best] = true
		steps = append(steps, Step{StepMatch, best})
		bindAtom(best)
		flush()
	}
	return steps
}

// NBodySlots returns the number of slots occupied by the positive body
// atoms. Slots are allocated in first-occurrence order over the body
// (positives first), so body slots are exactly [0, NBodySlots()) and two
// rules with identical positive bodies number them identically — the
// canonical renaming that makes cross-rule body sharing sound.
func (cr *CompiledRule) NBodySlots() int {
	nb := 0
	for _, a := range cr.Pos {
		for p, isv := range a.IsVar {
			if isv && a.Slot[p] >= nb {
				nb = a.Slot[p] + 1
			}
		}
	}
	return nb
}

// BodySignature renders the positive body under canonical slot naming,
// and reports whether the rule is eligible for common-subexpression
// sharing of that body. Rules sharing an equal, eligible signature can
// be matched through one shared body cursor per delta and replay only
// their private assignments, conditions and heads per match (the CSE of
// the paper's execution optimizer). Ineligible are rules whose body
// match itself is not a pure function of the batch-start store: negated
// atoms and dom() restrictions (their evaluation time matters when the
// database grows mid-batch), Skolem-minting assignments (null identity
// depends on firing order), and assignments feeding slots matched by
// body atoms (the body then depends on assignment interleaving).
func (cr *CompiledRule) BodySignature() (string, bool) {
	if len(cr.Pos) < 2 || len(cr.Neg) > 0 || len(cr.DomSlots) > 0 {
		return "", false
	}
	inBody := make(map[int]bool)
	for _, a := range cr.Pos {
		for p, isv := range a.IsVar {
			if isv {
				inBody[a.Slot[p]] = true
			}
		}
	}
	for _, asg := range cr.Assigns {
		if asg.IsSkolem || inBody[asg.Slot] {
			return "", false
		}
	}
	var sb strings.Builder
	for _, a := range cr.Pos {
		sb.WriteString(a.Pred)
		sb.WriteByte('(')
		for p := range a.IsVar {
			if p > 0 {
				sb.WriteByte(',')
			}
			if a.IsVar[p] {
				fmt.Fprintf(&sb, "s%d", a.Slot[p])
			} else {
				fmt.Fprintf(&sb, "k%d:%s", a.Const[p].Kind(), a.Const[p].String())
			}
		}
		sb.WriteString(")|")
	}
	return sb.String(), true
}

// BodyMatcher compiles a match-only twin of the rule: same positive
// body atoms and slot numbering, no assignments, conditions, negation,
// aggregation or heads. Engines use it as the shared cursor for a CSE
// group — one enumeration of the body feeds every member rule, which
// then replays its private PostMatchSteps per captured match.
func (cr *CompiledRule) BodyMatcher() *CompiledRule {
	nb := cr.NBodySlots()
	m := &CompiledRule{
		Rule:    cr.Rule,
		Info:    cr.Info,
		VarSlot: cr.VarSlot,
		SlotVar: cr.SlotVar[:nb],
		NSlots:  nb,
		Pos:     cr.Pos,
		WardPos: -1,
	}
	m.buildSchedules()
	return m
}

// PostMatchSteps returns the assignment and condition steps a CSE group
// member replays after its shared body matched: every assignment and
// condition, in dependency order, with all body slots bound (conditions
// reading the aggregate result stay excluded — the engine's aggregation
// path runs them, exactly as with in-schedule matching).
func (cr *CompiledRule) PostMatchSteps() []Step {
	bound := make([]bool, cr.NSlots)
	for _, a := range cr.Pos {
		for p, isv := range a.IsVar {
			if isv {
				bound[a.Slot[p]] = true
			}
		}
	}
	aggSlot := -1
	if cr.Agg != nil {
		aggSlot = cr.Agg.ResultSlot
	}
	asgDone := make([]bool, len(cr.Assigns))
	condDone := make([]bool, len(cr.Conds))
	steps := []Step{}
	for progress := true; progress; {
		progress = false
		for i, a := range cr.Assigns {
			ok := !asgDone[i]
			for _, s := range a.Deps {
				ok = ok && bound[s]
			}
			if ok {
				asgDone[i] = true
				bound[a.Slot] = true
				steps = append(steps, Step{StepAssign, i})
				progress = true
			}
		}
		for i, c := range cr.Conds {
			ok := !condDone[i]
			for _, s := range c.Deps {
				if !bound[s] || s == aggSlot {
					ok = false
				}
			}
			if ok {
				condDone[i] = true
				steps = append(steps, Step{StepCond, i})
				progress = true
			}
		}
	}
	return steps
}

// String renders the plan compactly for diagnostics.
func (cr *CompiledRule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rule %d (%s): %s", cr.Rule.ID, cr.Info.Kind, cr.Rule.String())
	return sb.String()
}
