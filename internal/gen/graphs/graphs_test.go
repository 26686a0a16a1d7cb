package graphs

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/parser"
	"repro/internal/pipeline"
)

func TestScaleFreeShape(t *testing.T) {
	g := ScaleFree(2000, PaperParams(), 7)
	if g.N != 2000 {
		t.Fatalf("nodes: %d", g.N)
	}
	if len(g.Edges) == 0 {
		t.Fatal("no edges")
	}
	// Preferential attachment must produce hubs: max in-degree far above
	// the mean.
	indeg := make(map[int]int)
	for _, e := range g.Edges {
		indeg[e.Dst]++
	}
	maxIn := 0
	for _, d := range indeg {
		if d > maxIn {
			maxIn = d
		}
	}
	mean := float64(len(g.Edges)) / float64(g.N)
	if float64(maxIn) < 8*mean {
		t.Errorf("no hub structure: max in-degree %d vs mean %.2f", maxIn, mean)
	}
}

func TestScaleFreeDeterministic(t *testing.T) {
	a := ScaleFree(500, PaperParams(), 3)
	b := ScaleFree(500, PaperParams(), 3)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed must give the same graph")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("edge mismatch under same seed")
		}
	}
	c := ScaleFree(500, PaperParams(), 4)
	same := len(a.Edges) == len(c.Edges)
	if same {
		diff := false
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				diff = true
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestWeightsAreShares(t *testing.T) {
	g := ScaleFree(1000, PaperParams(), 5)
	byDst := make(map[int]float64)
	for _, e := range g.Edges {
		if e.W < 0 || e.W > 1 {
			t.Fatalf("weight out of range: %v", e.W)
		}
		byDst[e.Dst] += e.W
	}
	for dst, total := range byDst {
		if total > 1.0001 {
			t.Fatalf("company %d is over-owned: %v", dst, total)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 300, 2)
	if len(g.Edges) != 300 {
		t.Fatalf("edges: %d", len(g.Edges))
	}
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			t.Fatal("self loop")
		}
	}
}

func TestRealLikeShallow(t *testing.T) {
	g := RealLike(5000, 11)
	if len(g.Edges) == 0 {
		t.Fatal("no edges")
	}
	ratio := float64(len(g.Edges)) / float64(g.N)
	if ratio < 0.5 || ratio > 1.2 {
		t.Errorf("edge/node ratio %.2f outside the 42K/50K regime", ratio)
	}
}

func TestControlProgramEndToEnd(t *testing.T) {
	g := ScaleFree(300, PaperParams(), 9)
	prog := parser.MustParse(ControlProgram)
	s, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), g.OwnFacts()); err != nil {
		t.Fatal(err)
	}
	direct := 0
	for _, e := range g.Edges {
		if e.W > 0.5 {
			direct++
		}
	}
	if got := len(s.Output("control")); got < direct {
		t.Errorf("control pairs %d < direct majorities %d", got, direct)
	}
}

func TestQueryControlProgramParses(t *testing.T) {
	if _, err := parser.Parse(QueryControlProgram(3)); err != nil {
		t.Fatal(err)
	}
}

// scaleFreeScan is ScaleFree with the degree-biased draws made by a linear
// scan over the degrees: the reference the Fenwick trees must reproduce
// draw for draw.
func scaleFreeScan(n int, p ScaleFreeParams, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{}
	if n <= 0 {
		return g
	}
	var inDeg, outDeg []int
	addNode := func() int {
		inDeg = append(inDeg, 0)
		outDeg = append(outDeg, 0)
		g.N++
		return g.N - 1
	}
	pick := func(deg []int) int {
		t := rng.Intn(len(g.Edges) + g.N)
		acc := 0
		for v := 0; v < g.N; v++ {
			acc += deg[v] + 1
			if t < acc {
				return v
			}
		}
		return g.N - 1
	}
	addEdge := func(u, v int) {
		g.Edges = append(g.Edges, Edge{Src: u, Dst: v, W: 0})
		outDeg[u]++
		inDeg[v]++
	}
	addNode()
	for g.N < n {
		r := rng.Float64()
		switch {
		case r < p.Alpha:
			v := pick(inDeg)
			u := addNode()
			addEdge(u, v)
		case r < p.Alpha+p.Beta:
			if g.N >= 2 {
				addEdge(pick(outDeg), pick(inDeg))
			}
		default:
			u := pick(outDeg)
			v := addNode()
			addEdge(u, v)
		}
	}
	assignWeights(g, rng)
	return g
}

// TestScaleFreeMatchesScan: the Fenwick-tree draws pick the very nodes the
// linear scan picks, so ScaleFree's graphs — and every workload and digest
// built on them — are the scan's, edge for edge and weight for weight.
func TestScaleFreeMatchesScan(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 60, 120, 1500, 6000} {
		for seed := int64(1); seed <= 4; seed++ {
			got, want := ScaleFree(n, PaperParams(), seed), scaleFreeScan(n, PaperParams(), seed)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d seed=%d: %d nodes, %d edges; the scan gives %d, %d", n, seed, got.N, len(got.Edges), want.N, len(want.Edges))
			}
		}
	}
}

// TestFenwickSearch checks the tree against running sums over random
// weights, zero weights included.
func TestFenwickSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		f, w := newFenwick(n), make([]int, n)
		for v := range w {
			w[v] = rng.Intn(3)
			f.add(v, w[v])
		}
		acc := 0
		for v, wv := range w {
			for t0 := acc; t0 < acc+wv; t0++ {
				if got := f.search(t0); got != v {
					t.Fatalf("n=%d weights %v: search(%d) = %d, want %d", n, w, t0, got, v)
				}
			}
			acc += wv
		}
	}
}
