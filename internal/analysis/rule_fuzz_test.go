package analysis

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

// analyzeRuleMaps is analyzeRule as it was written with one map per fact —
// occurrences, non-affected variables, head variables, dom-grounded
// variables — kept as the oracle of the slice-based analyzeRule.
func analyzeRuleMaps(r *ast.Rule, affected map[Position]bool) *RuleInfo {
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

// genRule decodes data into one rule over predicates p0..p3 (arities 1, 2,
// 3, 1) and an affected-position set over them. It reads data as a stream
// of choices, so every byte string is a rule and a mutated one a nearby
// rule: negated atoms, dom atoms and dom(*) / dom(V) guards, repeated and
// anonymous variables, constants, and head variables the body does not
// bind.
func genRule(data []byte) (*ast.Rule, map[Position]bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	vars := []string{"A", "B", "C", "D", "_", "E", "F"}
	arg := func(n int) ast.Arg {
		b := next()
		if b%9 == 8 {
			return ast.C(term.Int(int64(b % 3)))
		}
		return ast.V(vars[b%n])
	}
	atom := func(n int) ast.Atom {
		i := next() % 4
		a := ast.Atom{Pred: fmt.Sprintf("p%d", i)}
		for k := 0; k < 1+i%3; k++ {
			a.Args = append(a.Args, arg(n))
		}
		return a
	}
	r := &ast.Rule{ID: next() % 8}
	for k := 1 + next()%4; k > 0; k-- {
		a, b := atom(5), next()
		switch {
		case len(r.Body) > 0 && b%5 == 0:
			a.Negated = true
		case b%11 == 0:
			a = ast.Atom{Pred: ast.DomPred, Args: []ast.Arg{arg(5)}}
		}
		r.Body = append(r.Body, a)
	}
	switch next() % 6 {
	case 0:
		r.UsesDom = true
	case 1:
		r.DomVars = append(r.DomVars, vars[next()%4])
	}
	for k := 1 + next()%2; k > 0; k-- {
		r.Heads = append(r.Heads, atom(len(vars)))
	}
	affected := make(map[Position]bool)
	for i := 0; i < 4; i++ {
		for k := 0; k < 1+i%3; k++ {
			if next()%2 == 0 {
				affected[Position{fmt.Sprintf("p%d", i), k}] = true
			}
		}
	}
	return r, affected
}

// checkAnalyzeRule compares analyzeRule with the map-based oracle.
func checkAnalyzeRule(t *testing.T, r *ast.Rule, affected map[Position]bool) {
	t.Helper()
	got, want := analyzeRule(r, affected), analyzeRuleMaps(r, affected)
	if !maps.Equal(got.Classes, want.Classes) || got.HasHarmfulJoin != want.HasHarmfulJoin ||
		got.WardIdx != want.WardIdx || got.Kind != want.Kind || !slices.Equal(got.Violations, want.Violations) {
		keys := slices.Collect(maps.Keys(affected))
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		t.Fatalf("%s with affected %v:\n got classes %v harmful join %v ward %d kind %v violations %q\nwant classes %v harmful join %v ward %d kind %v violations %q",
			r, keys, got.Classes, got.HasHarmfulJoin, got.WardIdx, got.Kind, got.Violations,
			want.Classes, want.HasHarmfulJoin, want.WardIdx, want.Kind, want.Violations)
	}
}

// TestAnalyzeRuleMatchesMaps checks analyzeRule against the map-based
// oracle on random rules.
func TestAnalyzeRuleMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64)
	for i := 0; i < 5000; i++ {
		rng.Read(buf)
		r, affected := genRule(buf)
		checkAnalyzeRule(t, r, affected)
	}
}

// FuzzAnalyzeRule checks the same agreement on mutated rules.
func FuzzAnalyzeRule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 0, 0, 6, 2, 1, 1, 5, 3, 3, 0, 2, 5, 0, 6, 1, 0, 1})
	f.Add([]byte("a warded rule with a dangerous variable in its ward"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, affected := genRule(data)
		checkAnalyzeRule(t, r, affected)
	})
}
