// Package lint is the structured diagnostics layer over parsed Vadalog
// programs: it re-surfaces the paper's Section 2 static analysis
// (wardedness, harmful joins, stratification) with source positions and
// adds compiler-grade program checks — unsafe heads, arity drift, dead
// rules, singleton variables, per-position type inference and condition
// satisfiability — each under a stable diagnostic code.
//
// Codes:
//
//	W001  error    rule breaks wardedness (Sec. 2.1)
//	W002  warning  harmful join (all occurrences of a join variable in
//	               affected positions; rewritten over tag twins)
//	N001  error    negation through a recursive predicate cycle
//	S001  info     existential head variable (derives labelled nulls)
//	A001  error    predicate used with inconsistent arities
//	D001  warning  rule unreachable from any @output
//	D002  warning  variable occurs exactly once in a rule body
//	T001  warning  join variable whose position types cannot unify
//	T002  warning  statically unsatisfiable condition set
//	T003  error    msum/mprod over a non-numeric argument
//	B001  warning  @bind/@qbind on a predicate never declared @input
//	               or @output
//
// The vet front end additionally emits E001 (error) for files that do
// not parse; it never originates here — Check requires a parsed program.
package lint

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ast"
)

// Severity ranks a diagnostic: Info diagnostics are informational (the
// construct is a deliberate language feature), Warning marks probable
// mistakes that do not stop compilation, Error marks programs the
// engines reject.
type Severity int

// Severities, in increasing order.
const (
	Info Severity = iota
	Warning
	Error
)

// String renders the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return "?"
	}
}

// Pos is a source position. File may be empty (source not read from a
// file); Line/Col are zero for programs built programmatically.
type Pos struct {
	File      string
	Line, Col int
}

// String renders "file:line:col", omitting the file when unknown.
func (p Pos) String() string {
	if p.File != "" {
		return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Related is a secondary location attached to a diagnostic, e.g. the
// first use of a predicate whose arity later drifts.
type Related struct {
	Pos     Pos
	Message string
}

// Diagnostic is one finding: a stable code, a severity, the primary
// source position and a human-readable message, plus optional related
// positions.
type Diagnostic struct {
	Code     string
	Severity Severity
	Pos      Pos
	Message  string
	Related  []Related
}

// String renders the go-vet-style "file:line:col: CODE: message" line;
// related positions follow on tab-indented lines.
func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s: %s", d.Pos, d.Code, d.Message)
	for _, r := range d.Related {
		fmt.Fprintf(&sb, "\n\t%s: %s", r.Pos, r.Message)
	}
	return sb.String()
}

// Render joins the diagnostics into the multi-line vet report.
func Render(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Options configures a lint run.
type Options struct {
	// File labels every diagnostic position with the source filename.
	File string
}

// Check runs every lint pass over prog and returns the diagnostics
// sorted by position, then code. Check never mutates prog.
func Check(prog *ast.Program, opts Options) []Diagnostic {
	c := &checker{prog: prog, file: opts.File, res: analysis.Analyze(prog)}
	c.checkWarded()
	c.checkStratification()
	c.checkExistentials()
	c.checkArity()
	c.checkDeadRules()
	c.checkSingletons()
	c.checkConditions()
	c.checkBindings()
	types := inferTypes(prog)
	c.checkJoinTypes(types)
	c.checkAggregates(types)
	sort.SliceStable(c.diags, func(i, j int) bool {
		a, b := c.diags[i], c.diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
	return c.diags
}

type checker struct {
	prog  *ast.Program
	file  string
	res   *analysis.Result
	diags []Diagnostic
}

func (c *checker) pos(line, col int) Pos { return Pos{File: c.file, Line: line, Col: col} }

func (c *checker) add(sev Severity, code string, line, col int, format string, args ...any) *Diagnostic {
	c.diags = append(c.diags, Diagnostic{
		Code:     code,
		Severity: sev,
		Pos:      c.pos(line, col),
		Message:  fmt.Sprintf(format, args...),
	})
	return &c.diags[len(c.diags)-1]
}

// checkWarded re-surfaces the wardedness analysis: one W001 error per
// violation and one W002 warning per rule with a harmful join.
func (c *checker) checkWarded() {
	for _, ri := range c.res.Rules {
		r := ri.Rule
		for _, v := range ri.Violations {
			// Per-rule violations are prefixed "rule N: "; the position
			// replaces that.
			msg := strings.TrimPrefix(v, fmt.Sprintf("rule %d: ", r.ID))
			c.add(Error, "W001", r.Line, r.Col, "rule is not warded: %s", msg)
		}
		if ri.HasHarmfulJoin {
			var vars []string
			for v, cl := range ri.Classes {
				if cl != analysis.Harmless && len(occurrenceAtoms(r, v)) >= 2 {
					vars = append(vars, v)
				}
			}
			sort.Strings(vars)
			c.add(Warning, "W002", r.Line, r.Col,
				"harmful join on %s: every occurrence is in an affected position, so the join may compare labelled nulls (rewritten over tag twins at compile time)",
				strings.Join(vars, ", "))
		}
	}
}

// occurrenceAtoms returns the indexes of distinct positive body atoms
// containing variable v.
func occurrenceAtoms(r *ast.Rule, v string) []int {
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

// checkStratification renders unstratifiable negation as the offending
// predicate cycle (N001), positioned at a negated atom on the cycle. It
// reads the condensation of the program as written.
func (c *checker) checkStratification() {
	g := analysis.Condense(c.prog, nil)
	if len(g.Unstratified) == 0 {
		return
	}
	type negEdge struct{ from, to int }
	var cyclic []negEdge
	for v := range g.Preds {
		for _, e := range g.Out(v) {
			if e.Neg && g.Comp[v] == g.Comp[e.To] {
				cyclic = append(cyclic, negEdge{v, e.To})
			}
		}
	}
	sort.Slice(cyclic, func(i, j int) bool {
		a, b := cyclic[i], cyclic[j]
		if g.Preds[a.from] != g.Preds[b.from] {
			return g.Preds[a.from] < g.Preds[b.from]
		}
		return g.Preds[a.to] < g.Preds[b.to]
	})
	for i, e := range cyclic {
		if i > 0 && e == cyclic[i-1] {
			continue
		}
		from, to := g.Preds[e.from], g.Preds[e.to]
		cycle := cyclePath(g, e.to, e.from)
		line, col := negatedAtomPos(c.prog, from, to)
		c.add(Error, "N001", line, col,
			"negation is not stratified: not %s feeds %s, which derives %s again (cycle: not %s -> %s)",
			from, to, from, from, strings.Join(cycle, " -> "))
	}
}

// cyclePath returns the predicate path from node to back to node from
// within their shared component, breadth first over the dependency edges,
// positive and negative, in sorted successor order.
func cyclePath(g *analysis.Condensation, to, from int) []string {
	prev := map[int]int{to: -1}
	queue := []int{to}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == from {
			var path []string
			for u := v; u >= 0; u = prev[u] {
				path = append([]string{g.Preds[u]}, path...)
			}
			return path
		}
		var succs []int
		for _, e := range g.Out(v) {
			if g.Comp[e.To] == g.Comp[from] {
				succs = append(succs, e.To)
			}
		}
		sort.Slice(succs, func(i, j int) bool { return g.Preds[succs[i]] < g.Preds[succs[j]] })
		for _, w := range succs {
			if _, seen := prev[w]; !seen {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return []string{g.Preds[to], g.Preds[from]}
}

// negatedAtomPos locates a rule with head pred 'to' whose body negates
// 'from' and returns the negated atom's position.
func negatedAtomPos(prog *ast.Program, from, to string) (int, int) {
	for _, r := range prog.Rules {
		heads := false
		for _, h := range r.Heads {
			if h.Pred == to {
				heads = true
			}
		}
		if !heads {
			continue
		}
		for _, a := range r.Body {
			if a.Negated && a.Pred == from {
				return a.Line, a.Col
			}
		}
	}
	return 0, 0
}

// checkExistentials reports each existentially quantified head variable
// (S001, info): the defining Datalog± feature, surfaced so authors see
// where labelled nulls will be minted.
func (c *checker) checkExistentials() {
	for _, r := range c.prog.Rules {
		for _, v := range r.Existentials() {
			line, col := r.Line, r.Col
			for _, h := range r.Heads {
				for _, arg := range h.Args {
					if arg.IsVar && arg.Var == v && arg.Line > 0 {
						line, col = arg.Line, arg.Col
					}
				}
			}
			c.add(Info, "S001", line, col,
				"head variable %s has no body occurrence: existentially quantified (each firing mints a labelled null)", v)
		}
	}
}

// checkArity reports predicates used with inconsistent arities (A001):
// each drifting use site is flagged, with the first-seen site attached.
func (c *checker) checkArity() {
	type site struct {
		arity     int
		line, col int
		what      string
	}
	first := make(map[string]site)
	note := func(pred string, arity, line, col int, what string) {
		if pred == ast.DomPred {
			return
		}
		f, ok := first[pred]
		if !ok {
			first[pred] = site{arity: arity, line: line, col: col, what: what}
			return
		}
		if f.arity != arity {
			d := c.add(Error, "A001", line, col,
				"predicate %s used with arity %d here but arity %d elsewhere", pred, arity, f.arity)
			d.Related = append(d.Related, Related{
				Pos:     c.pos(f.line, f.col),
				Message: fmt.Sprintf("%s with arity %d", f.what, f.arity),
			})
		}
	}
	for _, f := range c.prog.Facts {
		note(f.Pred, len(f.Args), f.Line, f.Col, "fact")
	}
	for _, r := range c.prog.Rules {
		for _, a := range r.Body {
			note(a.Pred, a.Arity(), a.Line, a.Col, "body atom")
		}
		for _, h := range r.Heads {
			note(h.Pred, h.Arity(), h.Line, h.Col, "head atom")
		}
	}
	for _, m := range c.prog.Mappings {
		note(m.Pred, len(m.Columns), m.Line, m.Col, "@mapping")
	}
}

// checkDeadRules reports rules unreachable from any @output (D001): rules
// outside the outputs' relevance cone (analysis.Cone, the one the pipeline
// drives a pull through), whose derivations can never influence an answer.
// Constraints and EGDs are always live (they restrict the model itself).
// Programs with no @output are library fragments; the check is skipped.
func (c *checker) checkDeadRules() {
	if len(c.prog.Outputs) == 0 {
		return
	}
	live := make([]bool, len(c.prog.Rules))
	for _, i := range analysis.Cone(c.prog, nil, slices.Sorted(maps.Keys(c.prog.Outputs))...) {
		live[i] = true
	}
	for i, r := range c.prog.Rules {
		if live[i] {
			continue
		}
		var heads []string
		for _, h := range r.Heads {
			if !containsStr(heads, h.Pred) {
				heads = append(heads, h.Pred)
			}
		}
		c.add(Warning, "D001", r.Line, r.Col,
			"dead rule: %s unreachable from any @output", strings.Join(heads, ", "))
	}
}

// checkSingletons reports variables occurring exactly once in a rule and
// that once in a body atom (D002): almost always a typo for another
// variable or for the anonymous _. Head-only singletons are existential
// quantification and belong to S001.
func (c *checker) checkSingletons() {
	for _, r := range c.prog.Rules {
		count := make(map[string]int)
		type bodyOcc struct{ line, col int }
		inBody := make(map[string]bodyOcc)
		bump := func(v string) {
			if v != "_" && v != "*" {
				count[v]++
			}
		}
		for _, a := range r.Body {
			for _, arg := range a.Args {
				if arg.IsVar {
					bump(arg.Var)
					if _, ok := inBody[arg.Var]; !ok {
						inBody[arg.Var] = bodyOcc{arg.Line, arg.Col}
					}
				}
			}
		}
		for _, h := range r.Heads {
			for _, arg := range h.Args {
				if arg.IsVar {
					bump(arg.Var)
				}
			}
		}
		for _, cond := range r.Conds {
			for _, v := range cond.L.Vars(cond.R.Vars(nil)) {
				bump(v)
			}
		}
		for _, asg := range r.Assignments {
			bump(asg.Var)
			for _, v := range asg.Expr.Vars(nil) {
				bump(v)
			}
		}
		if r.Aggregate != nil {
			bump(r.Aggregate.Result)
			for _, v := range r.Aggregate.Arg.Vars(nil) {
				bump(v)
			}
			for _, v := range r.Aggregate.Contributors {
				bump(v)
			}
		}
		if r.EGD != nil {
			bump(r.EGD.Left)
			bump(r.EGD.Right)
		}
		for _, v := range r.DomVars {
			bump(v)
		}
		var singles []string
		for v, n := range count {
			if n == 1 {
				if _, ok := inBody[v]; ok {
					singles = append(singles, v)
				}
			}
		}
		sort.Strings(singles)
		for _, v := range singles {
			o := inBody[v]
			c.add(Warning, "D002", o.line, o.col,
				"variable %s occurs only once in the rule (typo? use _ to ignore a position)", v)
		}
	}
}

// checkBindings reports bindings on undeclared predicates (B001): a
// @bind/@qbind whose predicate is never marked @input or @output still
// loads (the @input annotation is declarative), but the missing
// declaration usually means a typo'd predicate name or a forgotten
// @input — and the record-manager pushdown (@qbind) plans around input
// declarations.
func (c *checker) checkBindings() {
	for _, b := range c.prog.Bindings {
		if c.prog.Inputs[b.Pred] || c.prog.Outputs[b.Pred] {
			continue
		}
		dir := "@bind"
		if b.Query != "" {
			dir = "@qbind"
		}
		c.add(Warning, "B001", b.Line, b.Col,
			"%s on %s, which is never declared @input or @output: declare @input(\"%s\") (or @output) so the binding's role is explicit",
			dir, b.Pred, b.Pred)
	}
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
