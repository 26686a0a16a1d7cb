// Package graphs generates the ownership/control graphs of the paper's
// industrial validation (Sec. 6.4): directed scale-free networks following
// the Bollobás–Borgs–Chayes–Riordan model with the parameters the paper
// learned from the European graph of financial companies (α=0.71, β=0.09,
// γ=0.2), Erdős–Rényi graphs, and "real-like" graphs standing in for the
// proprietary European ownership data (shorter chains, many hub
// companies, as the paper describes).
package graphs

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/ast"
	"repro/internal/term"
)

// Edge is one weighted ownership edge: Src owns W of Dst.
type Edge struct {
	Src, Dst int
	W        float64
}

// Graph is a directed multigraph over companies 0..N-1.
type Graph struct {
	N     int
	Edges []Edge
}

// ScaleFreeParams are the Bollobás model probabilities; they must sum to 1
// with β = 1 - α - γ.
type ScaleFreeParams struct {
	Alpha float64 // new node -> existing node by in-degree
	Beta  float64 // edge between existing nodes
	Gamma float64 // existing node by out-degree -> new node
}

// PaperParams returns the parameters learned in Sec. 6.4: α=0.71, β=0.09,
// γ=0.2.
func PaperParams() ScaleFreeParams { return ScaleFreeParams{Alpha: 0.71, Beta: 0.09, Gamma: 0.2} }

// ScaleFree grows a directed scale-free graph with n nodes using the
// preferential-attachment process of Bollobás et al. (SODA'03). The
// deterministic rng seed makes workloads reproducible.
//
// A node is drawn with probability proportional to its in- (or out-)degree
// plus one: a draw t of rng.Intn(edges + nodes) picks the first node whose
// running sum of deg+1 exceeds t. The running sums live in two Fenwick
// trees, so a draw and a degree update cost O(log n) each.
func ScaleFree(n int, p ScaleFreeParams, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{}
	if n <= 0 {
		return g
	}
	// Degree-biased sampling with +1 smoothing (δ_in = δ_out = 1). A node
	// not yet added weighs 0 in both trees.
	in, out := newFenwick(n), newFenwick(n)
	addNode := func() int {
		in.add(g.N, 1)
		out.add(g.N, 1)
		g.N++
		return g.N - 1
	}
	pickByIn := func() int { return in.search(rng.Intn(len(g.Edges) + g.N)) }
	pickByOut := func() int { return out.search(rng.Intn(len(g.Edges) + g.N)) }
	addEdge := func(u, v int) {
		g.Edges = append(g.Edges, Edge{Src: u, Dst: v, W: 0})
		out.add(u, 1)
		in.add(v, 1)
	}
	addNode()
	for g.N < n {
		r := rng.Float64()
		switch {
		case r < p.Alpha:
			v := pickByIn()
			u := addNode()
			addEdge(u, v)
		case r < p.Alpha+p.Beta:
			if g.N >= 2 {
				addEdge(pickByOut(), pickByIn())
			}
		default:
			u := pickByOut()
			v := addNode()
			addEdge(u, v)
		}
	}
	assignWeights(g, rng)
	return g
}

// fenwick is a binary indexed tree over the weights of nodes 0..n-1:
// tree[i] (1-based) holds the sum of the weights of the lowbit(i) nodes
// ending at node i-1.
type fenwick []int

func newFenwick(n int) fenwick { return make(fenwick, n+1) }

// add adds d to node v's weight.
func (f fenwick) add(v, d int) {
	for i := v + 1; i < len(f); i += i & -i {
		f[i] += d
	}
}

// search returns the first node whose running weight sum exceeds t, the
// last node when none does.
func (f fenwick) search(t int) int {
	pos := 0
	for step := bits.Len(uint(len(f)-1)) - 1; step >= 0; step-- {
		if next := pos + 1<<step; next < len(f) && f[next] <= t {
			pos = next
			t -= f[next]
		}
	}
	return min(pos, len(f)-2)
}

// ErdosRenyi generates a directed G(n, m) graph with m uniformly random
// edges (no self-loops).
func ErdosRenyi(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{N: n}
	for len(g.Edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.Edges = append(g.Edges, Edge{Src: u, Dst: v})
	}
	assignWeights(g, rng)
	return g
}

// RealLike builds a graph resembling the European financial ownership
// data: a forest of shallow control chains around hub companies, plus
// cross-ownership noise — "shorter chains and many hub companies"
// (Sec. 6.4). Roughly 0.85 edges per node, as in the paper's 50K
// companies / 42K edges subset.
func RealLike(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{N: n}
	if n < 2 {
		return g
	}
	hubs := n / 20
	if hubs < 1 {
		hubs = 1
	}
	edges := int(float64(n) * 0.85)
	for i := 0; i < edges; i++ {
		src := rng.Intn(hubs) // hubs own
		dst := hubs + rng.Intn(n-hubs)
		if rng.Float64() < 0.25 {
			// Short chain: a subsidiary owns further down.
			src = hubs + rng.Intn(n-hubs)
			dst = hubs + rng.Intn(n-hubs)
			if src == dst {
				dst = (dst + 1) % n
			}
		}
		g.Edges = append(g.Edges, Edge{Src: src, Dst: dst})
	}
	assignWeights(g, rng)
	return g
}

// assignWeights distributes ownership weights per target so that roughly
// half the companies have a majority owner and joint control arises.
// Destinations are processed in sorted order for determinism.
func assignWeights(g *Graph, rng *rand.Rand) {
	byDst := make(map[int][]int)
	for i, e := range g.Edges {
		byDst[e.Dst] = append(byDst[e.Dst], i)
	}
	dsts := make([]int, 0, len(byDst))
	for d := range byDst {
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	for _, d := range dsts {
		idxs := byDst[d]
		if len(idxs) == 1 {
			// Single owner: majority with probability 0.6.
			if rng.Float64() < 0.6 {
				g.Edges[idxs[0]].W = 0.5 + rng.Float64()*0.5
			} else {
				g.Edges[idxs[0]].W = rng.Float64() * 0.5
			}
			continue
		}
		// Multiple owners: draw shares from a stick-breaking split.
		remaining := 1.0
		for k, i := range idxs {
			if k == len(idxs)-1 {
				g.Edges[i].W = remaining * rng.Float64()
				break
			}
			share := remaining * rng.Float64()
			g.Edges[i].W = share
			remaining -= share
		}
	}
}

// CompanyName renders node i as a company constant.
func CompanyName(i int) term.Value { return term.String(fmt.Sprintf("c%d", i)) }

// OwnFacts converts the graph to own(src, dst, w) facts.
func (g *Graph) OwnFacts() []ast.Fact {
	out := make([]ast.Fact, 0, len(g.Edges))
	for _, e := range g.Edges {
		out = append(out, ast.NewFact("own", CompanyName(e.Src), CompanyName(e.Dst), term.Float(e.W)))
	}
	return out
}

// ControlProgram is the company-control reasoning task of Example 2: a
// company controls another when it directly or jointly (via controlled
// companies, monotonic sum) owns more than half of it.
const ControlProgram = `
	own(X,Y,W), W > 0.5 -> control(X,Y).
	control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
	@output("control").
`

// QueryControlProgram restricts the control relationship to a source
// company (query-style reasoning, scenario QueryReal/QueryRand).
func QueryControlProgram(src int) string {
	return fmt.Sprintf(`
		own(%[1]s,Y,W), W > 0.5 -> control(%[1]s,Y).
		control(%[1]s,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(%[1]s,Z).
		@output("control").
	`, CompanyName(src))
}
