package admit

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/term"
)

// kernel is a Core with a no-op hook plus what it takes to re-emit matches
// of rule 0 pinned to stored facts of its first body predicate — the
// admission kernel without a scheduler, for the allocation contract and the
// benchmarks beside it.
type kernel struct {
	c   *Core
	cr  *eval.CompiledRule
	mt  *eval.Matcher
	b   *eval.Binding
	err error
}

func newKernel(tb testing.TB, src string, edb []ast.Fact) *kernel {
	tb.Helper()
	p, err := Compile(parser.MustParse(src), Config{})
	if err != nil {
		tb.Fatal(err)
	}
	k := &kernel{c: p.NewCore(func(*core.FactMeta) {}), cr: p.Rules[0]}
	k.mt = &eval.Matcher{DB: k.c.DB()}
	k.b = eval.NewBinding(k.cr)
	for _, f := range edb {
		k.c.LoadRow(f.Pred, f.Args)
	}
	return k
}

// emit runs every match of rule 0 pinned to the i-th stored fact of its
// first body atom's relation through Core.Emit.
func (k *kernel) emit(i int) {
	m := k.c.DB().Lookup(k.cr.Pos[0].Pred).At(i)
	err := k.mt.MatchPinned(k.cr, 0, m, k.b, k.emitBinding)
	if err != nil {
		k.err = err
	}
}

func (k *kernel) emitBinding(b *eval.Binding) error {
	_, err := k.c.Emit(0, b)
	return err
}

func intFacts(pred string, n int) []ast.Fact {
	out := make([]ast.Fact, n)
	for i := range out {
		out[i] = ast.NewFact(pred, term.Int(int64(i)), term.Int(int64(i%7)))
	}
	return out
}

// TestEmitAllocationContract pins what a match costs after it is found: a
// binding whose every head is stored already dies in ID space — no fact, no
// args, no key, zero allocations — for a plain rule and for an existential
// rule whose Skolem null already exists, emitted as matched or replayed from
// a binding log; an admitted fact pays a small fixed count.
func TestEmitAllocationContract(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name, src string
		// perAdmit bounds the allocations of one admitting emission at the
		// count measured today: none for a plain rule — the fact's Args come
		// from the core's arena and its FactMeta from the strategy's, storing
		// the row allocates nothing of its own, the provenance of a linear
		// rule is a node of the strategy's path tree found among its
		// parent's children, and no stop-provenance being learnt here,
		// nothing about the root's pattern is stored; an existential rule
		// also mints its null (the Skolem key, its one allocation) and
		// stores the fact in its tree of the ground structure, which hashes
		// values and appends to one array — nothing rendered.
		perAdmit float64
	}{
		{"plain rule", `e(X,Y) -> p(Y,X).`, 0},
		{"existential rule", `e(X,Y) -> q(X,Z).`, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKernel(t, tc.src, intFacts("e", n))
			next := 0
			admit := testing.AllocsPerRun(n/2, func() { k.emit(next); next++ })
			if admit > tc.perAdmit {
				t.Errorf("an admitting emission costs %.0f allocations, want at most %.0f", admit, tc.perAdmit)
			}
			for ; next < n; next++ {
				k.emit(next)
			}
			stored := k.c.Derivations()
			next = 0
			dup := testing.AllocsPerRun(n-1, func() { k.emit(next); next++ })
			if dup != 0 {
				t.Errorf("an emission whose head is already stored costs %.0f allocations, want 0", dup)
			}
			// The buffered path: the same candidates captured into a log and
			// replayed restore IDs and probe — nothing is decoded or built.
			lg := &eval.BindingLog{}
			lg.Shape(k.cr)
			rel := k.c.DB().Lookup("e")
			for i := 0; i < n; i++ {
				err := k.mt.MatchPinned(k.cr, 0, rel.At(i), k.b, func(b *eval.Binding) error {
					lg.Capture(b)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			perm := lg.CanonicalOrder(nil, 0, lg.Len())
			replayed := testing.AllocsPerRun(5, func() {
				if _, err := k.c.Replay(0, lg, perm, k.b); err != nil {
					k.err = err
				}
			})
			if replayed != 0 {
				t.Errorf("replaying %d captured candidates whose heads are all stored costs %.0f allocations, want 0", lg.Len(), replayed)
			}
			if k.err != nil {
				t.Fatal(k.err)
			}
			if k.c.Derivations() != stored || stored != 2*n {
				t.Errorf("derivations: %d after the duplicate passes, %d before, want %d both", k.c.Derivations(), stored, 2*n)
			}
		})
	}
}

// TestOutputAllocationContract: ordering n facts renders each key once into
// one arena, so Output allocates a fixed handful of slices — the snapshot,
// the arena, the permutation — however large n is, not two strings per
// comparison.
func TestOutputAllocationContract(t *testing.T) {
	for _, n := range []int{500, 8000} {
		k := newKernel(t, `e(X,Y) -> p(Y,X).`, intFacts("e", n))
		for i := 0; i < n; i++ {
			k.emit(i)
		}
		var out []ast.Fact
		got := testing.AllocsPerRun(5, func() { out = k.c.Output("p") })
		if len(out) != n {
			t.Fatalf("Output returned %d facts, want %d", len(out), n)
		}
		if got > 6 {
			t.Errorf("Output of %d facts costs %.0f allocations, want a fixed handful (at most 6)", n, got)
		}
	}
}

// stringRows returns n distinct ternary rows of two string cells and an int
// — the shape of a bound CSV source — cut from one block, as a cursor chunk
// is.
func stringRows(n int) [][]term.Value {
	block := make([]term.Value, 3*n)
	rows := make([][]term.Value, n)
	for i := range rows {
		row := block[3*i : 3*i+3 : 3*i+3]
		row[0], row[1], row[2] = term.String(fmt.Sprint("n", i)), term.String(fmt.Sprint("n", i/2)), term.Int(int64(i%97))
		rows[i] = row
	}
	return rows
}

// TestLoadAllocationContract pins what loading an EDB row costs: a row
// already stored is interned into scratch, hashed, probed and dropped — zero
// allocations, whatever its values; a new row allocates nothing of its own
// either: its FactMeta comes from the strategy's arena, and the rest
// (interner, row and metadata arrays, the duplicate table) is amortized
// growth that rounds away. The row's values are retained as the fact's
// Args, not copied.
func TestLoadAllocationContract(t *testing.T) {
	const n = 4000
	k := newKernel(t, `edge(X,Y,W) -> p(X,Y).`, nil)
	rows := stringRows(n)
	next := 0
	fresh := testing.AllocsPerRun(n-1, func() { k.c.LoadRow("edge", rows[next]); next++ })
	if fresh != 0 {
		t.Errorf("loading a new row costs %.1f allocations, want 0", fresh)
	}
	if got := k.c.DB().Lookup("edge").Len(); got != n {
		t.Fatalf("%d rows stored, want %d", got, n)
	}
	next = 0
	dup := testing.AllocsPerRun(n-1, func() { k.c.LoadRow("edge", rows[next]); next++ })
	if dup != 0 {
		t.Errorf("loading a stored row costs %.0f allocations, want 0", dup)
	}
	if k.c.Derivations() != n {
		t.Errorf("derivations = %d after the duplicate pass, want %d", k.c.Derivations(), n)
	}
}

// BenchmarkLoadRows is the load kernel without the harness: one chunk-shaped
// slice of rows admitted through LoadRow into a fresh database ("new"), and
// the same rows offered again ("duplicate").
func BenchmarkLoadRows(b *testing.B) {
	const n = 8192
	rows := stringRows(n)
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			k := newKernel(b, `edge(X,Y,W) -> p(X,Y).`, nil)
			b.StartTimer()
			for _, row := range rows {
				k.c.LoadRow("edge", row)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	})
	b.Run("duplicate", func(b *testing.B) {
		k := newKernel(b, `edge(X,Y,W) -> p(X,Y).`, nil)
		for _, row := range rows {
			k.c.LoadRow("edge", row)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.c.LoadRow("edge", rows[i%n])
		}
	})
}

func BenchmarkEmitDuplicate(b *testing.B) {
	for _, tc := range []struct{ name, src string }{
		{"plain", `e(X,Y) -> p(Y,X).`},
		{"existential", `e(X,Y) -> q(X,Z).`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const n = 4096
			k := newKernel(b, tc.src, intFacts("e", n))
			for i := 0; i < n; i++ {
				k.emit(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.emit(i % n)
			}
			if k.err != nil {
				b.Fatal(k.err)
			}
		})
	}
}

func BenchmarkOutputOrder(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			k := newKernel(b, `e(X,Y) -> p(Y,X).`, intFacts("e", n))
			for i := 0; i < n; i++ {
				k.emit(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := k.c.Output("p"); len(out) != n {
					b.Fatalf("Output returned %d facts, want %d", len(out), n)
				}
			}
		})
	}
}
