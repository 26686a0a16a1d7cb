package source

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/term"
)

// Query is a parsed @qbind selection: a conjunction of constant
// comparisons over predicate positions, e.g. "$2 > 10, $1 != \"acme\"".
// Positions are 1-based and refer to the row after @mapping projection
// (the predicate's argument positions).
type Query struct {
	Raw       string
	Conjuncts []Conjunct
}

// Conjunct is one comparison of a column against a constant.
type Conjunct struct {
	Col int // 1-based predicate position
	Op  ast.CmpOp
	Val term.Value
}

// ParseQuery parses the @qbind selection syntax: comma-separated
// conjuncts, each "$N op literal" or "literal op $N" with op one of
// ==, =, !=, <>, <, <=, >, >=. Literals use the Vadalog constant syntax
// (ints, floats, #t/#f, quoted strings; bare identifiers are strings).
func ParseQuery(s string) (*Query, error) {
	q := &Query{Raw: s}
	for _, part := range splitTop(s) {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("source: empty conjunct in query %q", s)
		}
		c, err := parseConjunct(part)
		if err != nil {
			return nil, err
		}
		q.Conjuncts = append(q.Conjuncts, c)
	}
	if len(q.Conjuncts) == 0 {
		return nil, fmt.Errorf("source: empty query")
	}
	return q, nil
}

// MaxCol returns the highest column referenced by the query.
func (q *Query) MaxCol() int {
	max := 0
	for _, c := range q.Conjuncts {
		if c.Col > max {
			max = c.Col
		}
	}
	return max
}

// Matches reports whether row satisfies every conjunct. A conjunct over
// a column the row does not have never matches. Each comparison is rule
// conditions' own (ast.CmpOp.Holds).
func (q *Query) Matches(row []term.Value) bool {
	for _, c := range q.Conjuncts {
		if c.Col > len(row) || !c.Op.Holds(row[c.Col-1], c.Val) {
			return false
		}
	}
	return true
}

// String renders the query in the surface syntax it was parsed from.
func (q *Query) String() string {
	var sb strings.Builder
	for i, c := range q.Conjuncts {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "$%d %s %s", c.Col, c.Op, c.Val)
	}
	return sb.String()
}

// splitTop splits s at top-level commas, respecting quoted strings.
func splitTop(s string) []string {
	var parts []string
	start := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inQuote:
			if c == '\\' {
				i++
			} else if c == '"' {
				inQuote = false
			}
		case c == '"':
			inQuote = true
		case c == ',':
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

// cmpOps is ordered longest-first so two-character operators win.
var cmpOps = []struct {
	text string
	op   ast.CmpOp
}{
	{"==", ast.CmpEq}, {"!=", ast.CmpNeq}, {"<>", ast.CmpNeq},
	{"<=", ast.CmpLe}, {">=", ast.CmpGe},
	{"=", ast.CmpEq}, {"<", ast.CmpLt}, {">", ast.CmpGt},
}

func parseConjunct(s string) (Conjunct, error) {
	// Find the operator outside quotes.
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inQuote:
			if c == '\\' {
				i++
			} else if c == '"' {
				inQuote = false
			}
			continue
		case c == '"':
			inQuote = true
			continue
		}
		for _, cand := range cmpOps {
			if strings.HasPrefix(s[i:], cand.text) {
				lhs := strings.TrimSpace(s[:i])
				rhs := strings.TrimSpace(s[i+len(cand.text):])
				return buildConjunct(s, lhs, rhs, cand.op)
			}
		}
	}
	return Conjunct{}, fmt.Errorf("source: no comparison operator in conjunct %q", s)
}

func buildConjunct(orig, lhs, rhs string, op ast.CmpOp) (Conjunct, error) {
	lcol, lok, err := parseColRef(lhs)
	if err != nil {
		return Conjunct{}, err
	}
	rcol, rok, err := parseColRef(rhs)
	if err != nil {
		return Conjunct{}, err
	}
	switch {
	case lok && rok:
		return Conjunct{}, fmt.Errorf("source: conjunct %q compares two columns; one side must be a constant", orig)
	case !lok && !rok:
		return Conjunct{}, fmt.Errorf("source: conjunct %q has no $N column reference", orig)
	case lok:
		v, err := parseQueryConst(rhs)
		if err != nil {
			return Conjunct{}, err
		}
		return Conjunct{Col: lcol, Op: op, Val: v}, nil
	default:
		v, err := parseQueryConst(lhs)
		if err != nil {
			return Conjunct{}, err
		}
		return Conjunct{Col: rcol, Op: flipOp(op), Val: v}, nil
	}
}

func parseColRef(s string) (col int, ok bool, err error) {
	if !strings.HasPrefix(s, "$") {
		return 0, false, nil
	}
	n, perr := strconv.Atoi(s[1:])
	if perr != nil || n < 1 {
		return 0, false, fmt.Errorf("source: bad column reference %q (want $N, N >= 1)", s)
	}
	return n, true, nil
}

func parseQueryConst(s string) (term.Value, error) {
	if s == "" {
		return term.Value{}, fmt.Errorf("source: missing constant in query conjunct")
	}
	v, err := term.ParseLiteral(s)
	if err != nil {
		return term.Value{}, fmt.Errorf("source: bad query constant %q: %v", s, err)
	}
	return v, nil
}

func flipOp(op ast.CmpOp) ast.CmpOp {
	switch op {
	case ast.CmpLt:
		return ast.CmpGt
	case ast.CmpLe:
		return ast.CmpGe
	case ast.CmpGt:
		return ast.CmpLt
	case ast.CmpGe:
		return ast.CmpLe
	default:
		return op // ==, != are symmetric
	}
}
