// Package ast defines the abstract syntax of Vadalog programs: atoms,
// existential rules, conditions, expressions, aggregations, constraints,
// equality-generating dependencies and annotations, plus runtime facts.
package ast

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/term"
)

// Arg is one argument position of an atom in a rule: either a variable or
// a constant. The special variable "*" (Dom(*)) and the anonymous variable
// "_" are represented as variables with those names.
type Arg struct {
	IsVar bool
	Var   string
	Const term.Value
	// Line/Col locate the argument in the source text (0 when the program
	// was built programmatically) for positioned diagnostics.
	Line, Col int
}

// V returns a variable argument.
func V(name string) Arg { return Arg{IsVar: true, Var: name} }

// C returns a constant argument.
func C(v term.Value) Arg { return Arg{Const: v} }

// String renders the argument in surface syntax.
func (a Arg) String() string {
	if a.IsVar {
		return a.Var
	}
	return SourceString(a.Const)
}

// SourceString renders a constant so that the parser reads it back as the
// same value: string constants are rendered bare only when they re-lex as
// a plain identifier (lowercase-initial, alphanumeric/underscore, not a
// keyword); everything else is quoted. Value.String is looser (it keeps
// '-', '.' and uppercase-initial strings bare), which is fine for keys and
// display but breaks parse round-trips.
func SourceString(v term.Value) string {
	if v.Kind() != term.KindString {
		return v.String()
	}
	s := v.Str()
	if !safeBareIdent(s) {
		return strconv.Quote(s)
	}
	return s
}

// safeBareIdent reports whether s lexes as a single lowercase-initial
// identifier token (and not the keyword "not").
func safeBareIdent(s string) bool {
	if s == "" || s == "not" {
		return false
	}
	if s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			return false
		}
	}
	return true
}

// Atom is a predicate applied to arguments, possibly negated (stratified
// negation in rule bodies only).
type Atom struct {
	Pred    string
	Args    []Arg
	Negated bool
	// Line/Col locate the predicate name in the source text (0 when the
	// program was built programmatically) for positioned diagnostics.
	Line, Col int
}

// NewAtom builds a positive atom.
func NewAtom(pred string, args ...Arg) Atom { return Atom{Pred: pred, Args: args} }

// Arity returns the number of argument positions.
func (a Atom) Arity() int { return len(a.Args) }

// Vars appends the distinct variable names occurring in a to dst in order
// of first occurrence and returns the extended slice.
func (a Atom) Vars(dst []string) []string {
	for _, arg := range a.Args {
		if arg.IsVar && arg.Var != "_" && !containsStr(dst, arg.Var) {
			dst = append(dst, arg.Var)
		}
	}
	return dst
}

// String renders the atom in surface syntax.
func (a Atom) String() string {
	var sb strings.Builder
	if a.Negated {
		sb.WriteString("not ")
	}
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, arg := range a.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(arg.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// CmpOp is a comparison operator in a condition.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNeq
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the operator in surface syntax.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "=="
	case CmpNeq:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// Condition is a comparison between two expressions, filtering bindings.
type Condition struct {
	Op   CmpOp
	L, R Expr
	// Line/Col locate the condition in the source text (0 when the program
	// was built programmatically) for positioned diagnostics.
	Line, Col int
}

// String renders the condition in surface syntax.
func (c Condition) String() string {
	return c.L.String() + " " + c.Op.String() + " " + c.R.String()
}

// Assignment binds a fresh head variable to the value of an expression
// evaluated under the body bindings (paper Sec. 5, "expressions as the LHS
// of an assignment").
type Assignment struct {
	Var  string
	Expr Expr
	// Line/Col locate the assignment in the source text (0 when the program
	// was built programmatically) for positioned diagnostics.
	Line, Col int
}

// String renders the assignment in surface syntax.
func (a Assignment) String() string { return a.Var + " = " + a.Expr.String() }

// AggregateSpec describes a monotonic aggregation z = maggr(x, <c1,...>)
// with optional contributor variables (windowing) per paper Sec. 5.
// Group-by arguments are implicitly the head variables other than Result.
type AggregateSpec struct {
	Result       string // z, the monotonic aggregate variable
	Func         string // msum, mprod, mmin, mmax, mcount, munion
	Arg          Expr   // x, the aggregated expression
	Contributors []string
	// Line/Col locate the aggregation in the source text (0 when the
	// program was built programmatically) for positioned diagnostics.
	Line, Col int
}

// String renders the aggregation in surface syntax.
func (a AggregateSpec) String() string {
	var sb strings.Builder
	sb.WriteString(a.Result)
	sb.WriteString(" = ")
	sb.WriteString(a.Func)
	sb.WriteByte('(')
	sb.WriteString(a.Arg.String())
	if len(a.Contributors) > 0 {
		sb.WriteString(",<")
		sb.WriteString(strings.Join(a.Contributors, ","))
		sb.WriteByte('>')
	}
	sb.WriteByte(')')
	return sb.String()
}

// EGDSpec is an equality-generating dependency head: body -> X = Y.
type EGDSpec struct {
	Left, Right string
}

// Rule is one Vadalog rule. Exactly one of the following holds:
//   - len(Heads) > 0: an existential rule (tgd);
//   - IsConstraint: a negative constraint body -> ⊥;
//   - EGD != nil: an equality-generating dependency.
//
// Head variables that do not occur in the body, in an assignment or as an
// aggregate result are existentially quantified.
//
// A rule is immutable once Program.AddRule has numbered it: its fields, and
// the slices and pointers they hold, are never written again. Rewriting
// passes and compiled reasoners share rules by pointer, and a pass that
// changes a rule builds a shallow copy with a fresh slice for each field it
// writes.
type Rule struct {
	ID           int
	Heads        []Atom
	Body         []Atom
	Conds        []Condition
	Assignments  []Assignment
	Aggregate    *AggregateSpec
	IsConstraint bool
	EGD          *EGDSpec
	// UsesDom marks rules whose body contains the dom(*) guard restricting
	// all body variables to active-domain constants.
	UsesDom bool
	// DomVars lists variables restricted individually by dom(V) guards
	// written in the body; each binds V to active-domain constants only.
	DomVars []string
	// Skolem optionally overrides the rule's Skolem base name; rewriting
	// passes set it so that split or composed rules mint the same labelled
	// nulls as the original rule (see SkolemBase).
	Skolem string
	// Line/Col locate the rule's first token in the source text (0 when the
	// program was built programmatically) for positioned diagnostics.
	// Rewriting passes preserve the position of the originating rule.
	Line, Col int
}

// SkolemBase returns the base name used to derive the deterministic Skolem
// functions instantiating this rule's existential variables.
func (r *Rule) SkolemBase() string { return r.SkolemBaseAt(r.ID) }

// SkolemBaseAt is SkolemBase for the rule numbered id: a rewriting pass
// names the rules it derives after the position the rule holds in its
// input, whatever ID the shared rule still carries.
func (r *Rule) SkolemBaseAt(id int) string {
	if r.Skolem != "" {
		return r.Skolem
	}
	return fmt.Sprintf("r%d", id)
}

// BodyVars returns the distinct variable names of the positive body in
// order of first occurrence.
func (r *Rule) BodyVars() []string {
	n := 0
	for _, a := range r.Body {
		if !a.Negated {
			n += len(a.Args)
		}
	}
	vs := make([]string, 0, n)
	for _, a := range r.Body {
		if !a.Negated {
			vs = a.Vars(vs)
		}
	}
	return vs
}

// HeadVars returns the distinct variable names of all head atoms.
func (r *Rule) HeadVars() []string {
	n := 0
	for _, a := range r.Heads {
		n += len(a.Args)
	}
	vs := make([]string, 0, n)
	for _, a := range r.Heads {
		vs = a.Vars(vs)
	}
	return vs
}

// BoundVars returns the variables bound by the body, assignments and
// aggregation, i.e. every head variable that is NOT existential.
func (r *Rule) BoundVars() map[string]bool {
	bound := make(map[string]bool)
	for _, v := range r.BodyVars() {
		bound[v] = true
	}
	for _, as := range r.Assignments {
		bound[as.Var] = true
	}
	if r.Aggregate != nil {
		bound[r.Aggregate.Result] = true
	}
	return bound
}

// Existentials returns the head variables that are existentially
// quantified, in order of first occurrence in the head. Compilation asks
// it of every rule in several passes, so it builds no BoundVars map: a
// rule has a handful of variables, each looked up by a scan.
func (r *Rule) Existentials() []string {
	var ex []string
	for _, h := range r.Heads {
		for _, arg := range h.Args {
			if v := arg.Var; arg.IsVar && v != "_" && !containsStr(ex, v) && !r.binds(v) {
				ex = append(ex, v)
			}
		}
	}
	return ex
}

// binds reports whether v is in BoundVars: a variable of a positive body
// atom, an assignment's or the aggregate's result.
func (r *Rule) binds(v string) bool {
	for _, a := range r.Body {
		if a.Negated {
			continue
		}
		for _, arg := range a.Args {
			if arg.IsVar && arg.Var == v {
				return true
			}
		}
	}
	for _, as := range r.Assignments {
		if as.Var == v {
			return true
		}
	}
	return r.Aggregate != nil && r.Aggregate.Result == v
}

// IsLinear reports whether the rule has at most one positive body atom
// (dom(*) guards do not count).
func (r *Rule) IsLinear() bool {
	n := 0
	for _, a := range r.Body {
		if !a.Negated && a.Pred != DomPred {
			n++
		}
	}
	return n <= 1
}

// String renders the rule in surface syntax.
func (r *Rule) String() string {
	var parts []string
	if r.UsesDom {
		parts = append(parts, DomPred+"(*)")
	}
	for _, v := range r.DomVars {
		parts = append(parts, DomPred+"("+v+")")
	}
	for _, a := range r.Body {
		parts = append(parts, a.String())
	}
	for _, c := range r.Conds {
		parts = append(parts, c.String())
	}
	for _, as := range r.Assignments {
		parts = append(parts, as.String())
	}
	if r.Aggregate != nil {
		parts = append(parts, r.Aggregate.String())
	}
	body := strings.Join(parts, ", ")
	var head string
	switch {
	case r.IsConstraint:
		head = "#fail"
	case r.EGD != nil:
		head = r.EGD.Left + " = " + r.EGD.Right
	default:
		var hs []string
		for _, h := range r.Heads {
			hs = append(hs, h.String())
		}
		head = strings.Join(hs, ", ")
	}
	if body == "" {
		return head + "."
	}
	return body + " -> " + head + "."
}

// DomPred is the reserved predicate name of the active-domain guard
// dom(*) (paper Sec. 2, "Modeling Features").
const DomPred = "dom"

// Fact is a ground atom: a predicate over constants and labelled nulls.
type Fact struct {
	Pred string
	Args []term.Value
	// Line/Col locate an inline program fact in the source text (0 for
	// runtime facts) for positioned diagnostics.
	Line, Col int
}

// NewFact builds a fact.
func NewFact(pred string, args ...term.Value) Fact { return Fact{Pred: pred, Args: args} }

// IsGround reports whether the fact contains no labelled nulls.
func (f Fact) IsGround() bool {
	for _, a := range f.Args {
		if a.IsNull() {
			return false
		}
	}
	return true
}

// Key returns a canonical string key identifying the fact exactly
// (constants and null identities included).
func (f Fact) Key() string {
	var sb strings.Builder
	sb.WriteString(f.Pred)
	for _, a := range f.Args {
		sb.WriteByte('\x00')
		sb.WriteString(a.String())
	}
	return sb.String()
}

// AppendArgsKey appends the part of Key() after the predicate — every
// argument's rendering preceded by a 0 byte — to dst: the renderer behind
// canonical output order and the post-processing group keys, which fill
// reused buffers instead of building a string per fact.
func (f Fact) AppendArgsKey(dst []byte) []byte {
	for _, a := range f.Args {
		dst = a.AppendString(append(dst, '\x00'))
	}
	return dst
}

// PatternKey returns the canonical pattern of the fact per the paper's
// pattern-isomorphism: constants are numbered by first occurrence and so
// are nulls, e.g. P(1,2,x,y) and P(3,4,z,y) share pattern P(c1,c2,n1,n2).
// It is the rendered reference the termination strategy's value-space
// pattern comparison is fuzzed against (core.FuzzIsoShape); the strategy
// itself renders nothing.
func (f Fact) PatternKey() string {
	var sb strings.Builder
	sb.WriteString(f.Pred)
	consts := make(map[term.Value]int)
	nulls := make(map[int64]int)
	for _, a := range f.Args {
		sb.WriteByte('\x00')
		if a.IsNull() {
			id, ok := nulls[a.NullID()]
			if !ok {
				id = len(nulls) + 1
				nulls[a.NullID()] = id
			}
			sb.WriteByte('n')
			sb.WriteByte(byte('0' + id%10))
			if id >= 10 {
				fmt.Fprintf(&sb, "%d", id/10)
			}
		} else {
			id, ok := consts[a]
			if !ok {
				id = len(consts) + 1
				consts[a] = id
			}
			sb.WriteByte('c')
			sb.WriteByte(byte('0' + id%10))
			if id >= 10 {
				fmt.Fprintf(&sb, "%d", id/10)
			}
		}
	}
	return sb.String()
}

// String renders the fact in surface syntax; constants are rendered with
// SourceString, so the rendering parses back to the same fact.
func (f Fact) String() string {
	var sb strings.Builder
	sb.WriteString(f.Pred)
	sb.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(SourceString(a))
	}
	sb.WriteByte(')')
	return sb.String()
}

// Isomorphic reports whether facts a and b are isomorphic per Sec. 3.1:
// same predicate, equal constants in the same positions, and a bijection
// between their labelled nulls. It is the map-based reference for
// core.IsoEqual, which compares constants by the store's identity (one NaN)
// and allocates nothing.
func Isomorphic(a, b Fact) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	var fwd, bwd map[int64]int64
	for i, x := range a.Args {
		y := b.Args[i]
		if x.IsNull() != y.IsNull() {
			return false
		}
		if !x.IsNull() {
			if x != y {
				return false
			}
			continue
		}
		if fwd == nil {
			fwd = make(map[int64]int64, 4)
			bwd = make(map[int64]int64, 4)
		}
		xi, yi := x.NullID(), y.NullID()
		if m, ok := fwd[xi]; ok {
			if m != yi {
				return false
			}
		} else {
			fwd[xi] = yi
		}
		if m, ok := bwd[yi]; ok {
			if m != xi {
				return false
			}
		} else {
			bwd[yi] = xi
		}
	}
	return true
}

// Binding is an @bind or @qbind annotation attaching a predicate to an
// external source or sink via a record manager. @qbind carries a query —
// a constant selection over predicate positions like "$2 > 10" — that the
// binding layer pushes into the driver when supported (post-filtering
// otherwise); @bind has none.
type Binding struct {
	Pred   string
	Driver string // registry name, e.g. "csv"
	Target string // driver-interpreted locator, e.g. a file path
	Query  string // @qbind selection; "" for @bind
	// Line/Col locate the annotation in the source text (0 when the
	// program was built programmatically) for positioned compile errors.
	Line, Col int
}

// PostDirective is an @post annotation: a post-processing step applied to
// an output predicate (orderBy, certain, limit).
type PostDirective struct {
	Pred string
	Kind string // "orderBy" | "certain" | "limit"
	Arg  int    // column for orderBy (1-based), count for limit
}

// Mapping is an @mapping annotation harmonizing named external columns
// with Vadalog's positional perspective: the named source columns are
// selected, in order, onto the predicate's argument positions.
type Mapping struct {
	Pred    string
	Columns []string
	// Line/Col locate the annotation in the source text (0 when the
	// program was built programmatically) for positioned compile errors.
	Line, Col int
}

// Program is a parsed Vadalog program: rules, inline facts and
// annotations.
type Program struct {
	Rules    []*Rule
	Facts    []Fact
	Inputs   map[string]bool
	Outputs  map[string]bool
	Bindings []Binding
	Posts    []PostDirective
	Mappings []Mapping
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Inputs: make(map[string]bool), Outputs: make(map[string]bool)}
}

// AddRule appends r, assigning it the next rule ID. From here on r is
// immutable (see Rule).
func (p *Program) AddRule(r *Rule) {
	r.ID = len(p.Rules)
	p.Rules = append(p.Rules, r)
}

// Predicates returns every predicate mentioned in rules or facts, with its
// arity. It returns an error on inconsistent arities.
func (p *Program) Predicates() (map[string]int, error) {
	ar := make(map[string]int)
	note := func(pred string, n int) error {
		if pred == DomPred {
			return nil
		}
		if old, ok := ar[pred]; ok && old != n {
			return fmt.Errorf("ast: predicate %s used with arities %d and %d", pred, old, n)
		}
		ar[pred] = n
		return nil
	}
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if err := note(a.Pred, a.Arity()); err != nil {
				return nil, err
			}
		}
		for _, h := range r.Heads {
			if err := note(h.Pred, h.Arity()); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range p.Facts {
		if err := note(f.Pred, len(f.Args)); err != nil {
			return nil, err
		}
	}
	return ar, nil
}

// IDBPreds returns the set of predicates appearing in some rule head.
func (p *Program) IDBPreds() map[string]bool {
	idb := make(map[string]bool)
	for _, r := range p.Rules {
		for _, h := range r.Heads {
			idb[h.Pred] = true
		}
	}
	return idb
}

// String renders the whole program in surface syntax. The rendering is
// deterministic (@input/@output sets are sorted) and parses back to an
// equivalent program.
func (p *Program) String() string {
	var sb strings.Builder
	for _, pred := range sortedPreds(p.Inputs) {
		fmt.Fprintf(&sb, "@input(%q).\n", pred)
	}
	for _, pred := range sortedPreds(p.Outputs) {
		fmt.Fprintf(&sb, "@output(%q).\n", pred)
	}
	for _, b := range p.Bindings {
		if b.Query != "" {
			fmt.Fprintf(&sb, "@qbind(%q,%q,%q,%q).\n", b.Pred, b.Driver, b.Target, b.Query)
		} else {
			fmt.Fprintf(&sb, "@bind(%q,%q,%q).\n", b.Pred, b.Driver, b.Target)
		}
	}
	for _, m := range p.Mappings {
		fmt.Fprintf(&sb, "@mapping(%q", m.Pred)
		for _, c := range m.Columns {
			fmt.Fprintf(&sb, ",%q", c)
		}
		sb.WriteString(").\n")
	}
	for _, d := range p.Posts {
		if d.Kind == "certain" {
			fmt.Fprintf(&sb, "@post(%q,%q).\n", d.Pred, d.Kind)
		} else {
			fmt.Fprintf(&sb, "@post(%q,%q,%d).\n", d.Pred, d.Kind, d.Arg)
		}
	}
	for _, f := range p.Facts {
		sb.WriteString(f.String())
		sb.WriteString(".\n")
	}
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func sortedPreds(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for pred := range set {
		out = append(out, pred)
	}
	sort.Strings(out)
	return out
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
