package chase

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

// cseBodies are the two-atom bodies the fuzzed rules share, over variables
// 0, 1 and 2; cseNames the names a rule gives those variables.
var (
	cseBodies = []string{"e(%[1]s,%[2]s), e(%[2]s,%[3]s)", "e(%[1]s,%[3]s), f(%[2]s,%[3]s)", "e(%[1]s,%[2]s), f(%[1]s,%[3]s)"}
	cseNames  = [][]any{{"X", "Y", "Z"}, {"A", "B", "C"}, {"Z", "X", "Y"}}
)

// cseOps are the comparisons the fuzzed conditions use; cseConsts their
// constants and cseValues the facts' values, Int and Float mixed so that a
// condition equates values the store keeps apart (Int(1), Float(1.0)).
var (
	cseOps    = []string{"<", ">=", "==", "!=", ">"}
	cseConsts = []string{"0", "1", "2", "1.0", "1.5", "2.0"}
	cseValues = []term.Value{term.Int(0), term.Int(1), term.Int(2), term.Float(1), term.Float(1.5), term.Float(2), term.Float(0)}
)

// cseProgram decodes data into a program of 2–6 rules over one shared
// two-atom body and facts of e and f. The program draws a pool of up to
// three var/const conditions; each rule names the body's variables its own
// way, takes most of the pool's conditions in a rotated order plus maybe one
// of its own, and has a head over its body variables, some feeding e or f
// back.
func cseProgram(data []byte) (string, []ast.Fact) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	type cond struct {
		l, r int // variable indexes; r < 0: the constant cseConsts[-r-1]
		op   string
	}
	draw := func() cond {
		c := cond{l: next() % 3, op: cseOps[next()%len(cseOps)], r: next() % 3}
		if k := next(); k%2 == 0 {
			c.r = -1 - k/2%len(cseConsts)
		}
		return c
	}
	body := cseBodies[next()%len(cseBodies)]
	pool := make([]cond, next()%4)
	for i := range pool {
		pool[i] = draw()
	}
	var sb strings.Builder
	for r, n := 0, 2+next()%5; r < n; r++ {
		names := cseNames[next()%len(cseNames)]
		var conds []cond
		for _, c := range pool {
			if next()%4 != 0 {
				conds = append(conds, c)
			}
		}
		if next()%3 == 0 {
			conds = append(conds, draw())
		}
		if len(conds) > 0 {
			k := next() % len(conds)
			conds = append(conds[k:], conds[:k]...)
		}
		fmt.Fprintf(&sb, body, names...)
		for _, c := range conds {
			var right any
			if c.r >= 0 {
				right = names[c.r]
			} else {
				right = cseConsts[-c.r-1]
			}
			fmt.Fprintf(&sb, ", %s %s %s", names[c.l], c.op, right)
		}
		head := fmt.Sprintf("h%d", r)
		if k := next() % 4; k < 2 {
			head = []string{"e", "f"}[k]
		}
		fmt.Fprintf(&sb, " -> %s(%s,%s).\n", head, names[next()%3], names[next()%3])
	}
	var facts []ast.Fact
	for len(data) >= 3 {
		pred := []string{"e", "f"}[next()%2]
		facts = append(facts, ast.NewFact(pred, cseValues[next()%len(cseValues)], cseValues[next()%len(cseValues)]))
	}
	return sb.String(), facts
}

// FuzzCSEConditions: a CSE group's body tests the conditions its members
// share, and each member replays only the rest. That must change nothing the
// chase admits, nor the order: the database with CSE on is byte for byte the
// one under DisablePlanner, which forms no groups.
func FuzzCSEConditions(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 2, 0, 0, 1, 2, 1, 4, 2, 0, 2, 3, 0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 2, 3, 0, 3, 3})
	f.Add([]byte{1, 1, 2, 0, 1, 1, 3, 2, 1, 0, 2, 1, 1, 9, 0, 2, 1, 0, 1, 5, 1, 3, 4, 0, 4, 1, 1, 6, 2})
	f.Add([]byte{2, 4, 3, 0, 3, 6, 1, 1, 1, 2, 7, 3, 2, 3, 2, 2, 0, 0, 1, 4, 2, 0, 0, 0, 3, 3, 1, 5, 5, 0, 6, 6, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, facts := cseProgram(data)
		base := dbBytes(runWithOpts(t, src, facts, Options{DisablePlanner: true}))
		if got := dbBytes(runWithOpts(t, src, facts, Options{})); got != base {
			t.Fatalf("CSE run diverges from the planner-off run on\n%s\nCSE:\n%s\nplanner off:\n%s", src, got, base)
		}
	})
}
