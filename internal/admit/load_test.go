package admit

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
)

// loadPayload is an EDB with everything the load path has to get right:
// duplicates (adjacent and far apart), a constant the interner meets for the
// first time in the middle of a row, a predicate the program does not
// mention (r, whose first row sets its arity), imported labelled nulls, NaN
// (one ID however it is spelled) and both zeros. Rows of another arity are
// TestLoadRowRefusesAnotherArity's.
func loadPayload() []ast.Fact {
	s, i, f := term.String, term.Int, term.Float
	return []ast.Fact{
		ast.NewFact("p", s("a"), i(1)),
		ast.NewFact("p", s("b"), i(2)),
		ast.NewFact("p", s("a"), i(1)),
		ast.NewFact("q", s("a")),
		ast.NewFact("p", s("a"), i(3)),
		ast.NewFact("p", s("never-seen"), i(3)),
		ast.NewFact("r", i(1)),
		ast.NewFact("r", i(1)),
		ast.NewFact("r", i(3)),
		ast.NewFact("n", term.Null(7), s("a")),
		ast.NewFact("n", term.Null(7), s("a")),
		ast.NewFact("n", term.Null(12), term.Null(7)),
		ast.NewFact("f", f(math.NaN())),
		ast.NewFact("f", f(math.Float64frombits(0x7ff8000000000001))),
		ast.NewFact("f", f(math.Copysign(0, -1))),
		ast.NewFact("f", f(0)),
		ast.NewFact("f", f(1)),
		ast.NewFact("f", i(1)),
		ast.NewFact("p", s("b"), i(2)),
	}
}

// referenceLoad replays, with the store's unchanged primitives, the order
// of operations loading had when it resolved before it interned: look the
// fact up without interning anything; skip it when stored; otherwise insert
// it, which interns its values in argument order; then register its ground
// values in the active domain.
func referenceLoad(db *storage.Database, acdom map[uint32]bool, f ast.Fact) {
	if db.Rel(f.Pred, len(f.Args)).Contains(f) {
		return
	}
	db.Insert(&core.FactMeta{Fact: f, RuleID: -1})
	for _, v := range f.Args {
		if v.IsGround() {
			acdom[db.Interner().Intern(v)] = true
		}
	}
}

// sameStore requires two databases to be indistinguishable down to the ID:
// the same symbol table, the same predicates in the same order, the same
// rows at the same indexes, each row's metadata pointing back at its index.
func sameStore(t *testing.T, got, want *storage.Database) {
	t.Helper()
	gi, wi := got.Interner(), want.Interner()
	if gi.Len() != wi.Len() {
		t.Fatalf("interner holds %d values, want %d", gi.Len(), wi.Len())
	}
	for id := uint32(1); int(id) <= wi.Len(); id++ {
		g, w := gi.ValueOf(id), wi.ValueOf(id)
		if g != w && !(g.Kind() == term.KindFloat && w.Kind() == term.KindFloat && math.IsNaN(g.FloatVal()) && math.IsNaN(w.FloatVal())) {
			t.Fatalf("ID %d is %v %v, want %v %v", id, g.Kind(), g, w.Kind(), w)
		}
	}
	if !reflect.DeepEqual(got.Predicates(), want.Predicates()) {
		t.Fatalf("predicates %v, want %v", got.Predicates(), want.Predicates())
	}
	for _, pred := range want.Predicates() {
		g, w := got.Lookup(pred), want.Lookup(pred)
		if g.Arity() != w.Arity() || g.Len() != w.Len() {
			t.Fatalf("%s: arity %d with %d rows, want arity %d with %d rows", pred, g.Arity(), g.Len(), w.Arity(), w.Len())
		}
		for i := 0; i < w.Len(); i++ {
			if !reflect.DeepEqual(g.Row(i), w.Row(i)) {
				t.Fatalf("%s row %d = %v, want %v", pred, i, g.Row(i), w.Row(i))
			}
			if g.At(i).RowIndex() != i {
				t.Fatalf("%s row %d: its metadata says row %d", pred, i, g.At(i).RowIndex())
			}
		}
	}
}

// TestLoadIdentities: a database loaded through LoadRow — intern once, probe
// in ID space, materialize survivors — has the IDs, rows, predicates, active
// domain and output a database loaded resolve-first had.
func TestLoadIdentities(t *testing.T) {
	p, err := Compile(parser.MustParse(`p(X,Y) -> out(X,Y).`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := p.NewCore(func(*core.FactMeta) {})
	ref, acdom := storage.NewDatabase(), map[uint32]bool{}
	for _, f := range loadPayload() {
		c.LoadRow(f.Pred, f.Args)
		referenceLoad(ref, acdom, f)
	}
	sameStore(t, c.DB(), ref)
	if c.DB().ActiveDomainSize() != len(acdom) {
		t.Errorf("|ACDom| = %d, want %d", c.DB().ActiveDomainSize(), len(acdom))
	}
	for id := uint32(0); int(id) <= ref.Interner().Len()+70; id++ {
		if c.DB().InActiveDomainID(id) != acdom[id] {
			t.Errorf("ID %d (%v): in ACDom = %v, want %v", id, ref.Interner().ValueOf(id), !acdom[id], acdom[id])
		}
	}
	if c.DB().InActiveDomain(term.Null(7)) || !c.DB().InActiveDomain(term.String("never-seen")) || c.DB().InActiveDomain(term.String("absent")) {
		t.Error("ACDom holds exactly the constants of EDB facts: no null, no unseen value")
	}
	for _, pred := range ref.Predicates() {
		want := eval.ApplyPost(ref.FactsOf(pred), nil, pred, nil)
		if got := c.Output(pred); !reflect.DeepEqual(factStrings(got), factStrings(want)) {
			t.Errorf("Output(%s) = %v, want %v", pred, got, want)
		}
	}
	if got, want := c.Derivations(), ref.TotalFacts(); got != want {
		t.Errorf("%d facts charged, want one per stored row: %d", got, want)
	}
}

func factStrings(fs []ast.Fact) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// TestLoadRowRefusesAnotherArity: the arity of a loaded row is its
// predicate's in the compiled program, else the arity of the relation an
// earlier load created. A row of another width is refused with ErrArity,
// naming the predicate and both widths, and nothing of it is stored — no
// value interned, no relation created, nothing charged — however often it
// is loaded again.
func TestLoadRowRefusesAnotherArity(t *testing.T) {
	p, err := Compile(parser.MustParse(`p(X,Y) -> out(X,Y).`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := p.NewCore(func(*core.FactMeta) {})
	s, i := term.String, term.Int
	refuse := func(pred string, args []term.Value, want string) {
		t.Helper()
		in, n, preds := c.DB().Interner().Len(), c.Derivations(), len(c.DB().Predicates())
		for range 2 {
			err := c.LoadRow(pred, args)
			if !errors.Is(err, ErrArity) || !strings.Contains(err.Error(), want) {
				t.Fatalf("LoadRow(%s, %v) = %v, want ErrArity saying %q", pred, args, err, want)
			}
		}
		if c.DB().Interner().Len() != in || c.Derivations() != n || len(c.DB().Predicates()) != preds {
			t.Fatalf("the refused row %s%v changed the store", pred, args)
		}
	}
	// The compile's arity holds before any row of p or out is stored.
	refuse("p", []term.Value{s("fresh")}, "p has arity 2, not 1")
	refuse("out", []term.Value{s("a"), i(1), i(2)}, "out has arity 2, not 3")
	for _, row := range [][]term.Value{{s("a"), i(1)}, {i(7), i(8), i(9)}} {
		pred := map[int]string{2: "p", 3: "z"}[len(row)]
		if err := c.LoadRow(pred, row); err != nil {
			t.Fatalf("LoadRow(%s, %v): %v", pred, row, err)
		}
	}
	// z is not in the program: its first row fixed its arity.
	refuse("z", []term.Value{i(7)}, "z has arity 3, not 1")
	refuse("p", []term.Value{s("a"), i(1), i(1)}, "p has arity 2, not 3")
	if c.Derivations() != 2 {
		t.Errorf("%d facts charged, want the 2 stored", c.Derivations())
	}
}

// TestLoadResumesAfterInsertFault: a storage fault in the middle of a chunk
// leaves the admitted prefix stored and nothing else; feeding the same chunk
// again admits exactly the rest, and the database equals one loaded without
// interruption — through the fact entry and the row entry alike.
func TestLoadResumesAfterInsertFault(t *testing.T) {
	payload := loadPayload()
	var rows [][]term.Value
	for _, f := range payload {
		if f.Pred == "p" {
			rows = append(rows, f.Args)
		}
	}
	newCore := func() *Core {
		p, err := Compile(parser.MustParse(`p(X,Y) -> out(X,Y).`), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return p.NewCore(func(*core.FactMeta) {})
	}
	for name, load := range map[string]func(c *Core){
		"facts": func(c *Core) {
			for _, f := range payload {
				c.LoadRow(f.Pred, f.Args)
			}
		},
		"rows": func(c *Core) {
			for _, row := range rows {
				c.LoadRow("p", row)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			clean := newCore()
			load(clean)
			for hit := 1; hit <= clean.DB().TotalFacts(); hit++ {
				c := newCore()
				if err := fault.Enable("storage.insert@" + strconv.Itoa(hit)); err != nil {
					t.Fatal(err)
				}
				err := Guard("test load", func() error { load(c); return nil })
				fault.Disable()
				var pe *core.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("hit %d: want the fault recovered into a *core.PanicError, got %v", hit, err)
				}
				if got := c.DB().TotalFacts(); got != hit-1 || c.Derivations() != hit-1 {
					t.Fatalf("hit %d: %d rows stored, %d charged, want %d both", hit, got, c.Derivations(), hit-1)
				}
				load(c)
				sameStore(t, c.DB(), clean.DB())
				if c.Derivations() != clean.Derivations() || c.DB().ActiveDomainSize() != clean.DB().ActiveDomainSize() {
					t.Fatalf("hit %d: resumed load charged %d with |ACDom| %d, uninterrupted %d with %d", hit,
						c.Derivations(), c.DB().ActiveDomainSize(), clean.Derivations(), clean.DB().ActiveDomainSize())
				}
			}
		})
	}
}
