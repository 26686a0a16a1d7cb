// Package eval compiles Vadalog rules into slot-based executable plans and
// implements body matching against the indexed store (the slot machine
// join of paper Sec. 4), head instantiation with deterministic Skolem
// nulls, monotonic aggregation state, and the null substitution used for
// equality-generating dependencies.
//
// Compile decides what a match computes: every expression (condition,
// assignment, Skolem or aggregate argument) becomes a function over the
// binding's slots with its operators and builtins resolved, and the
// rule's aggregation function becomes one small type per function
// (AggState), so matching never looks up a name or builds a map.
package eval

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/storage"
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
// the matcher can apply them through the database's Skolem memo.
type CAssign struct {
	Slot     int
	Deps     []int // slots read by the expression
	IsSkolem bool
	SkName   string

	expr    expr   // the value (not a Skolem call)
	skArgs  []expr // the Skolem call's arguments
	skSlots []int  // per Skolem argument: its slot when a variable, else -1
}

// CCond is a compiled condition with its slot dependencies.
type CCond struct {
	Cond ast.Condition
	Deps []int

	l, r expr
}

// Holds evaluates the condition on b's slots.
func (c *CCond) Holds(b *Binding) (bool, error) {
	l, err := c.l(b)
	if err != nil {
		return false, err
	}
	r, err := c.r(b)
	if err != nil {
		return false, err
	}
	return c.Cond.Op.Holds(l, r), nil
}

// CAgg is a compiled monotonic aggregation.
type CAgg struct {
	ResultSlot   int
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

	arg     expr
	newFunc func() aggFunc
}

// Contribution evaluates the aggregated expression on b's slots.
func (a *CAgg) Contribution(b *Binding) (term.Value, error) { return a.arg(b) }

// NewState returns empty aggregation state for the rule, keying groups and
// contributors through in (see NewAggState).
func (a *CAgg) NewState(in *storage.Interner) *AggState { return newAggState(a.newFunc(), in) }

// expr is an ast.Expr compiled against a rule's slots: it reads the
// binding directly, with its operators and builtins resolved once (their
// semantics are ast's; ast.Expr.Eval is the uncompiled form).
type expr func(b *Binding) (term.Value, error)

// compileExpr compiles e, numbering its variables through slot.
func compileExpr(e ast.Expr, slot func(string) int) expr {
	switch ex := e.(type) {
	case ast.ConstExpr:
		v := ex.Val
		return func(*Binding) (term.Value, error) { return v, nil }
	case ast.VarExpr:
		s, name := slot(ex.Name), ex.Name
		return func(b *Binding) (term.Value, error) {
			if !b.Bound[s] {
				return term.Value{}, fmt.Errorf("eval: unbound variable %s in expression", name)
			}
			return b.Val(s), nil
		}
	case ast.BinExpr:
		l, r, op := compileExpr(ex.L, slot), compileExpr(ex.R, slot), ast.Operator(ex.Op)
		return func(b *Binding) (term.Value, error) {
			lv, err := l(b)
			if err != nil {
				return term.Value{}, err
			}
			rv, err := r(b)
			if err != nil {
				return term.Value{}, err
			}
			return op(lv, rv)
		}
	case ast.FuncExpr:
		args, fn := compileExprs(ex.Args, slot), ast.Builtin(ex.Name)
		return func(b *Binding) (term.Value, error) {
			base, err := b.push(args)
			if err != nil {
				return term.Value{}, err
			}
			v, err := fn(b.stack[base:])
			b.stack = b.stack[:base]
			return v, err
		}
	}
	panic(fmt.Sprintf("eval: unknown expression type %T", e))
}

// push evaluates es onto b's stack and returns where their values start;
// calls nested in es push above them and pop before returning. On an error
// the stack is left as it was.
func (b *Binding) push(es []expr) (int, error) {
	base := len(b.stack)
	for _, e := range es {
		v, err := e(b)
		if err != nil {
			b.stack = b.stack[:base]
			return base, err
		}
		b.stack = append(b.stack, v)
	}
	return base, nil
}

func compileExprs(es []ast.Expr, slot func(string) int) []expr {
	out := make([]expr, len(es))
	for i, e := range es {
		out[i] = compileExpr(e, slot)
	}
	return out
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
}

// Compile translates rule (with its analysis info) into an executable plan.
func Compile(rule *ast.Rule, info *analysis.RuleInfo) (*CompiledRule, error) {
	cr := &CompiledRule{Rule: rule, Info: info, VarSlot: make(map[string]int), WardPos: -1}
	slot := func(v string) int {
		s, ok := cr.VarSlot[v]
		if !ok {
			s = cr.NSlots
			cr.VarSlot[v] = s
			cr.NSlots++
		}
		return s
	}

	// Every compiled atom's IsVar, Slot and Const are cut from three
	// blocks sized to all the rule's argument positions.
	width, npos, nneg := 0, 0, 0
	for _, a := range rule.Body {
		switch {
		case a.Negated:
			nneg++
		case a.Pred == ast.DomPred:
			continue
		default:
			npos++
		}
		width += len(a.Args)
	}
	for _, h := range rule.Heads {
		width += len(h.Args)
	}
	isVar, slots, consts := make([]bool, width), make([]int, width), make([]term.Value, width)
	cr.Pos, cr.Heads = make([]CAtom, 0, npos), make([]CAtom, 0, len(rule.Heads))
	if nneg > 0 {
		cr.Neg = make([]CAtom, 0, nneg)
	}
	compileAtom := func(a ast.Atom, bodyIdx int) CAtom {
		n := len(a.Args)
		ca := CAtom{Pred: a.Pred, BodyIdx: bodyIdx, IsVar: isVar[:n:n], Slot: slots[:n:n], Const: consts[:n:n]}
		isVar, slots, consts = isVar[n:], slots[n:], consts[n:]
		for i, arg := range a.Args {
			switch {
			case arg.IsVar && arg.Var != "_":
				ca.IsVar[i] = true
				ca.Slot[i] = slot(arg.Var)
			case arg.IsVar: // anonymous: a fresh slot no variable names
				ca.IsVar[i] = true
				ca.Slot[i] = cr.NSlots
				cr.NSlots++
			default:
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
		ca := CAssign{Slot: slot(asg.Var), Deps: slotsOf(asg.Expr.Vars(nil))}
		if fe, ok := asg.Expr.(ast.FuncExpr); ok && fe.IsSkolem() {
			ca.IsSkolem = true
			ca.SkName = fe.Name
			ca.skArgs = compileExprs(fe.Args, slot)
			ca.skSlots = make([]int, len(fe.Args))
			for i, arg := range fe.Args {
				ca.skSlots[i] = -1
				if v, ok := arg.(ast.VarExpr); ok {
					ca.skSlots[i] = slot(v.Name)
				}
			}
		} else {
			ca.expr = compileExpr(asg.Expr, slot)
		}
		cr.Assigns = append(cr.Assigns, ca)
	}
	for _, c := range rule.Conds {
		cr.Conds = append(cr.Conds, CCond{Cond: c, Deps: slotsOf(c.L.Vars(c.R.Vars(nil))),
			l: compileExpr(c.L, slot), r: compileExpr(c.R, slot)})
	}
	if rule.Aggregate != nil {
		ag := rule.Aggregate
		newFunc, ok := aggFuncs[ag.Func]
		if !ok {
			return nil, fmt.Errorf("eval: unknown aggregation function %s", ag.Func)
		}
		ca := &CAgg{
			ResultSlot:   slot(ag.Result),
			arg:          compileExpr(ag.Arg, slot),
			ContribSlots: slotsOf(ag.Contributors),
			newFunc:      newFunc,
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

	return cr, nil
}

// ScheduleFor builds an execution schedule pinned at Pos[pinned] that
// matches the other positive body atoms in the given order (each exactly
// once), interleaving assignments and conditions as soon as their
// dependencies are bound (selection push-down). A nil or incomplete order
// is completed by the static greedy: the next atom is the one with the most
// already-bound positions (join reordering), ties going to the earliest in
// source order. It is the seam the cost-based planner emits plans through —
// the planner chooses only the join order, the compiler owns step assembly
// — and with a nil order it is the static schedule of a rule that runs one
// (admit.Compile).
func (cr *CompiledRule) ScheduleFor(pinned int, order []int) []Step {
	s := cr.newSchedule(make([]Step, 0, cr.scheduleLen()))
	s.matched[pinned] = true
	s.bindAtom(pinned)
	s.flush()
	for {
		best := s.pick(order)
		if best == -1 {
			break
		}
		s.matched[best] = true
		s.steps = append(s.steps, Step{StepMatch, best})
		s.bindAtom(best)
		s.flush()
	}
	return s.steps
}

// scheduleLen bounds the steps of a pinned schedule: every non-pinned atom,
// every assignment, and every condition but those reading the aggregate
// result, which the engine runs after aggregation. It is exact for every
// rule the parser accepts.
func (cr *CompiledRule) scheduleLen() int {
	n := len(cr.Pos) - 1 + len(cr.Assigns)
	for i := range cr.Conds {
		if !cr.readsAgg(cr.Conds[i].Deps) {
			n++
		}
	}
	return n
}

// readsAgg reports whether deps include the aggregate result slot.
func (cr *CompiledRule) readsAgg(deps []int) bool {
	return cr.Agg != nil && slices.Contains(deps, cr.Agg.ResultSlot)
}

// schedule is a schedule under assembly: the steps so far, and per slot
// whether it is bound, per positive atom whether it is matched, per
// assignment and per condition whether it is placed.
type schedule struct {
	cr                                *CompiledRule
	steps                             []Step
	bound, matched, asgDone, condDone []bool
}

// newSchedule starts a schedule appending to steps, nothing bound.
func (cr *CompiledRule) newSchedule(steps []Step) schedule {
	flags := make([]bool, cr.NSlots+len(cr.Pos)+len(cr.Assigns)+len(cr.Conds))
	s := schedule{cr: cr, steps: steps}
	s.bound, flags = flags[:cr.NSlots], flags[cr.NSlots:]
	s.matched, flags = flags[:len(cr.Pos)], flags[len(cr.Pos):]
	s.asgDone, s.condDone = flags[:len(cr.Assigns)], flags[len(cr.Assigns):]
	return s
}

// bindAtom marks the variable slots of positive atom i bound.
func (s *schedule) bindAtom(i int) {
	a := &s.cr.Pos[i]
	for p, isv := range a.IsVar {
		if isv {
			s.bound[a.Slot[p]] = true
		}
	}
}

func (s *schedule) allBound(deps []int) bool {
	for _, d := range deps {
		if !s.bound[d] {
			return false
		}
	}
	return true
}

// flush places every assignment and condition whose dependencies are bound,
// until none is left to place; an assignment binds its slot. Conditions
// reading the aggregate result wait for the aggregation step the engine
// performs after matching.
func (s *schedule) flush() {
	cr := s.cr
	for progress := true; progress; {
		progress = false
		for i, a := range cr.Assigns {
			if !s.asgDone[i] && s.allBound(a.Deps) {
				s.asgDone[i] = true
				s.bound[a.Slot] = true
				s.steps = append(s.steps, Step{StepAssign, i})
				progress = true
			}
		}
		for i, c := range cr.Conds {
			if s.condDone[i] || !s.allBound(c.Deps) || cr.readsAgg(c.Deps) {
				continue
			}
			s.condDone[i] = true
			s.steps = append(s.steps, Step{StepCond, i})
			progress = true
		}
	}
}

// pick returns the next atom to match: the first unmatched one of order,
// else the unmatched atom with the most bound positions (strict >, so ties
// go to the earliest in source order — the fallback order the planner is
// measured against); -1 when every atom is matched.
func (s *schedule) pick(order []int) int {
	n := len(s.cr.Pos)
	for _, i := range order {
		if i >= 0 && i < n && !s.matched[i] {
			return i
		}
	}
	best, bestScore := -1, -1
	for i := range s.cr.Pos {
		if s.matched[i] {
			continue
		}
		score := 0
		for p, isv := range s.cr.Pos[i].IsVar {
			if !isv || s.bound[s.cr.Pos[i].Slot[p]] {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
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
// the paper's execution optimizer); the conditions every one of them
// tests on the body alone (SharedConds) move into the shared enumeration.
// Ineligible are rules whose body match itself is not a pure function of
// the batch-start store: negated atoms and dom() restrictions (their
// evaluation time matters when the database grows mid-batch),
// Skolem-minting assignments (null identity depends on firing order), and
// assignments feeding slots matched by body atoms (the body then depends
// on assignment interleaving).
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
				writeConstKey(&sb, a.Const[p])
			}
		}
		sb.WriteString(")|")
	}
	return sb.String(), true
}

// writeConstKey renders a constant for a canonical key: its kind and its
// quoted text, so no two distinct values render alike.
func writeConstKey(sb *strings.Builder, v term.Value) {
	fmt.Fprintf(sb, "k%d:%q", v.Kind(), v.String())
}

// condKeys renders each of cr's conditions under BodySignature's canonical
// slot naming when a CSE group body can test it for the rule: each side a
// variable a positive body atom binds, or a constant. Such a condition
// cannot fail to evaluate, so testing it in the shared enumeration instead
// of the member's replay moves no error. Any other condition renders "".
func (cr *CompiledRule) condKeys() []string {
	nb := cr.NBodySlots()
	keys := make([]string, len(cr.Conds))
	var sb strings.Builder
	side := func(e ast.Expr) bool {
		switch ex := e.(type) {
		case ast.ConstExpr:
			writeConstKey(&sb, ex.Val)
			return true
		case ast.VarExpr:
			if s, ok := cr.VarSlot[ex.Name]; ok && s < nb {
				fmt.Fprintf(&sb, "s%d", s)
				return true
			}
		}
		return false
	}
	for i := range cr.Conds {
		c := &cr.Conds[i].Cond
		sb.Reset()
		if !side(c.L) {
			continue
		}
		sb.WriteString(" " + c.Op.String() + " ")
		if side(c.R) {
			keys[i] = sb.String()
		}
	}
	return keys
}

// SharedConds returns the canonical keys, sorted, of the conditions that
// every rule of members — rules of one BodySignature — tests on its body
// alone (see condKeys): the conditions their group's BodyMatcher tests once
// per match, and their PostMatchSteps leave out. A member without some
// condition keeps its place in the group; the condition is then private to
// the members that have it.
func SharedConds(members []*CompiledRule) []string {
	var shared []string
	for mi, cr := range members {
		keys := cr.condKeys()
		if mi == 0 {
			shared = slices.DeleteFunc(keys, func(k string) bool { return k == "" })
			slices.Sort(shared)
			shared = slices.Compact(shared)
			continue
		}
		shared = slices.DeleteFunc(shared, func(k string) bool { return !slices.Contains(keys, k) })
	}
	return shared
}

// BodyMatcher compiles the shared cursor of a CSE group whose members share
// the conditions shared (SharedConds): the rule's positive body atoms and
// slot numbering, and of its conditions those shared, in shared's order — no
// assignments, other conditions, negation, aggregation or heads. One
// enumeration of the body tests the shared conditions once per match and
// feeds every member rule, which then replays its private PostMatchSteps
// per captured match.
func (cr *CompiledRule) BodyMatcher(shared []string) *CompiledRule {
	body := &CompiledRule{
		Rule:    cr.Rule,
		Info:    cr.Info,
		VarSlot: cr.VarSlot,
		NSlots:  cr.NBodySlots(),
		Pos:     cr.Pos,
		WardPos: -1,
	}
	if len(shared) > 0 {
		keys := cr.condKeys()
		for _, k := range shared {
			if i := slices.Index(keys, k); i >= 0 {
				body.Conds = append(body.Conds, cr.Conds[i])
			}
		}
	}
	return body
}

// PostMatchSteps returns the assignment and condition steps a CSE group
// member replays after its shared body matched: with every positive atom's
// slots bound, every assignment and every condition but those the group's
// body tests (shared, see SharedConds), in dependency order (conditions
// reading the aggregate result stay excluded — the engine's aggregation
// path runs them, exactly as with in-schedule matching).
func (cr *CompiledRule) PostMatchSteps(shared []string) []Step {
	s := cr.newSchedule(make([]Step, 0, len(cr.Assigns)+len(cr.Conds)))
	if len(shared) > 0 {
		for i, k := range cr.condKeys() {
			s.condDone[i] = k != "" && slices.Contains(shared, k)
		}
	}
	for i := range cr.Pos {
		s.bindAtom(i)
	}
	s.flush()
	return s.steps
}

// String renders the plan compactly for diagnostics.
func (cr *CompiledRule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rule %d (%s): %s", cr.Rule.ID, cr.Info.Kind, cr.Rule.String())
	return sb.String()
}
