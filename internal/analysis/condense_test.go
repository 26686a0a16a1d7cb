package analysis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ast"
)

// genGraph decodes data into a program over predicates p0..pN-1, whose
// rule bodies may also read the would-be tag twins w0..wN-1, and a twin map
// sending some pI to wI; a rule may be a constraint or an EGD instead of
// deriving a head. It reads data as a stream of choices, so every byte
// string is a program and a mutated one is a nearby program.
func genGraph(data []byte) (*ast.Program, map[string]string) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 1 + next()%10
	pred := func(i int) string { return fmt.Sprintf("p%d", i%n) }
	prog := ast.NewProgram()
	x := []ast.Arg{ast.V("X")}
	for rules := next() % 24; rules > 0; rules-- {
		r := &ast.Rule{}
		switch h := next(); h % 16 {
		case 14:
			r.IsConstraint = true
		case 15:
			r.EGD = &ast.EGDSpec{Left: "X", Right: "X"}
		default:
			r.Heads = []ast.Atom{{Pred: pred(h), Args: x}}
		}
		for k := 1 + next()%3; k > 0; k-- {
			b := next()
			a := ast.Atom{Pred: pred(b), Args: x, Negated: len(r.Body) > 0 && b%5 == 0}
			if b%7 == 0 {
				a.Pred = fmt.Sprintf("w%d", b%n)
			}
			r.Body = append(r.Body, a)
		}
		prog.AddRule(r)
	}
	twins := make(map[string]string)
	for i := 0; i < n; i++ {
		if next()%3 == 0 {
			twins[pred(i)] = fmt.Sprintf("w%d", i)
		}
		if next()%4 == 0 {
			prog.Facts = append(prog.Facts, ast.Fact{Pred: pred(i)})
		}
	}
	return prog, twins
}

// checkCondensation compares Condense against definitions computed by brute
// force: reachability by transitive closure, components as mutual
// reachability, the predicates reaching negation as those with a path to
// the source of a negative edge, strata as the least fixpoint of
// stratum(q) >= stratum(p) + [negated] over every edge p -> q.
func checkCondensation(t *testing.T, prog *ast.Program, twins map[string]string) {
	t.Helper()
	g := Condense(prog, twins)
	n := len(g.Preds)
	type edge struct {
		from, to int
		neg      bool
	}
	var edges []edge
	for _, r := range prog.Rules {
		for _, h := range r.Heads {
			for _, b := range r.Body {
				edges = append(edges, edge{g.index[b.Pred], g.index[h.Pred], b.Negated})
			}
		}
	}
	for pred, twin := range twins {
		if from, ok := g.index[pred]; ok {
			to, ok := g.index[twin]
			if !ok {
				t.Fatalf("twin %s of %s has no node", twin, pred)
			}
			edges = append(edges, edge{from, to, false})
		}
	}
	reach := make([][]bool, n) // reach[u][v]: a path of length >= 1
	for u := range reach {
		reach[u] = make([]bool, n)
	}
	for _, e := range edges {
		reach[e.from][e.to] = true
	}
	for k := 0; k < n; k++ {
		for u := 0; u < n; u++ {
			if !reach[u][k] {
				continue
			}
			for v := 0; v < n; v++ {
				reach[u][v] = reach[u][v] || reach[k][v]
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			same := u == v || reach[u][v] && reach[v][u]
			if (g.Comp[u] == g.Comp[v]) != same {
				t.Fatalf("%s, %s: same component %v, mutually reachable %v", g.Preds[u], g.Preds[v], !same, same)
			}
		}
		if g.Recursive[g.Comp[u]] != reach[u][u] || g.InCycle(g.Preds[u]) != reach[u][u] {
			t.Fatalf("%s: recursive %v, on a cycle %v", g.Preds[u], g.Recursive[g.Comp[u]], reach[u][u])
		}
	}
	var bad []string
	for _, e := range edges {
		if g.Comp[e.from] > g.Comp[e.to] {
			t.Fatalf("edge %s -> %s against the topological numbering", g.Preds[e.from], g.Preds[e.to])
		}
		if e.neg && reach[e.to][e.from] && !slices.Contains(bad, g.Preds[e.from]) {
			bad = append(bad, g.Preds[e.from])
		}
	}
	slices.Sort(bad)
	if !slices.Equal(g.Unstratified, bad) {
		t.Fatalf("unstratified %v, want %v", g.Unstratified, bad)
	}
	reachesNeg := g.ReachesNegation()
	for u, pred := range g.Preds {
		want := false
		for _, e := range edges {
			want = want || e.neg && (e.from == u || reach[u][e.from])
		}
		if reachesNeg[pred] != want {
			t.Fatalf("%s: reaches negation %v, want %v", pred, reachesNeg[pred], want)
		}
	}
	checkCone(t, prog, twins, g, reach)
	if len(bad) > 0 {
		return // no strata to check: some negative edge closes a cycle
	}
	want := make([]int, n)
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			s := want[e.from]
			if e.neg {
				s++
			}
			if s > want[e.to] {
				want[e.to], changed = s, true
			}
		}
	}
	strata := g.Strata()
	for v, pred := range g.Preds {
		if strata[pred] != want[v] {
			t.Fatalf("%s: stratum %d, least stratum %d", pred, strata[pred], want[v])
		}
	}
}

// checkCone compares Cone against backward reachability by brute force,
// with reach the transitive closure of g's edges: a rule is in the cone of
// roots when it is a constraint or an EGD, or one of its heads is a target
// or has a path to one, the targets being the roots and every predicate a
// constraint or EGD reads. It tries no roots, each node alone, an unknown
// predicate, and the first three nodes together.
func checkCone(t *testing.T, prog *ast.Program, twins map[string]string, g *Condensation, reach [][]bool) {
	t.Helper()
	var always []string
	for _, r := range prog.Rules {
		if r.IsConstraint || r.EGD != nil {
			for _, b := range r.Body {
				always = append(always, b.Pred)
			}
		}
	}
	check := func(roots ...string) {
		t.Helper()
		targets := append(slices.Clone(roots), always...)
		needed := func(pred string) bool {
			u, ok := g.index[pred]
			for _, v := range targets {
				w, known := g.index[v]
				if v == pred || ok && known && reach[u][w] {
					return true
				}
			}
			return false
		}
		var want []int
		for i, r := range prog.Rules {
			in := r.IsConstraint || r.EGD != nil
			for _, h := range r.Heads {
				in = in || needed(h.Pred)
			}
			if in {
				want = append(want, i)
			}
		}
		if got := Cone(prog, twins, roots...); !slices.Equal(got, want) {
			t.Fatalf("cone of %v: %v, want %v", roots, got, want)
		}
	}
	check()
	check("unknown")
	for _, pred := range g.Preds {
		check(pred)
	}
	check(g.Preds[:min(3, len(g.Preds))]...)
}

// TestCondenseProperties checks the condensation on random programs.
func TestCondenseProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	buf := make([]byte, 96)
	for i := 0; i < 2000; i++ {
		rng.Read(buf)
		prog, twins := genGraph(buf)
		checkCondensation(t, prog, twins)
	}
}

// FuzzCondense checks the same properties on mutated programs.
func FuzzCondense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 6, 1, 2, 2, 0, 3, 1, 5, 0, 2, 3, 10, 0})
	f.Add([]byte("condensation of a dependency graph with negation"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, twins := genGraph(data)
		checkCondensation(t, prog, twins)
	})
}
