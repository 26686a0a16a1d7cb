package eval

import (
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/term"
)

// pinAll pins atom 0 of cr to every stored, non-retracted fact of its
// relation in turn and returns the bindings of all matches.
func pinAll(t *testing.T, cr *CompiledRule, db *storage.Database) [][]term.Value {
	t.Helper()
	mt := &Matcher{DB: db}
	b := NewBinding(cr)
	var out [][]term.Value
	rel := db.Lookup(cr.Pos[0].Pred)
	for i := 0; i < rel.Len(); i++ {
		m := rel.At(i)
		if m.Retracted {
			continue
		}
		err := mt.MatchPinned(cr, 0, m, b, func(b *Binding) error {
			row := make([]term.Value, len(b.IDs))
			for s := range row {
				row[s] = b.Val(s)
			}
			out = append(out, row)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPinnedByRow: the pinned atom is unified with the delta's stored row,
// so it sees what the relation holds — the superseding IDs of a row
// replaced in place, no row retracted — and tests constants and repeated
// variables exactly as a probed atom does.
func TestPinnedByRow(t *testing.T) {
	ints := func(vs ...int64) []term.Value {
		out := make([]term.Value, len(vs))
		for i, v := range vs {
			out[i] = term.Int(v)
		}
		return out
	}
	// Every case pins against the live store, as both engines do.
	run := func(name string, f func(t *testing.T)) { t.Run("live: "+name, f) }
	run("superseded in place", func(t *testing.T) {
		cr, res := compileFirst(t, `p(X,V) -> q(X,V).`)
		db := loadDB(t, res, ast.NewFact("p", ints(1, 5)...), ast.NewFact("p", ints(2, 6)...))
		rel := db.Lookup("p")
		m := rel.At(0)
		// 9 was never interned: the replacement interns it, and the
		// delta the log re-delivers is the same metadata.
		if rel.Replace(0, ast.NewFact("p", ints(1, 9)...)) != storage.ReplaceDone {
			t.Fatal("replace did not happen")
		}
		if rel.DeltaAt(rel.DeltaLen()-1) != m || m.RowIndex() != 0 {
			t.Fatal("the re-delivered delta must be the row's own metadata, row index unchanged")
		}
		want := [][]term.Value{ints(1, 9), ints(2, 6)}
		if got := pinAll(t, cr, db); !reflect.DeepEqual(got, want) {
			t.Errorf("bindings = %v, want %v", got, want)
		}
	})
	run("retraction keeps the other rows pinned where they are", func(t *testing.T) {
		cr, res := compileFirst(t, `p(X,V) -> q(X,V).`)
		db := loadDB(t, res, ast.NewFact("p", ints(1, 5)...), ast.NewFact("p", ints(1, 9)...), ast.NewFact("p", ints(3, 3)...))
		rel := db.Lookup("p")
		// Superseding row 0 by a fact row 1 already holds retracts row 0.
		if rel.Replace(0, ast.NewFact("p", ints(1, 9)...)) != storage.ReplaceRetracted {
			t.Fatal("row 0 should have been retracted")
		}
		if !rel.At(0).Retracted || rel.At(2).RowIndex() != 2 {
			t.Fatal("retraction must mark the row and move no other")
		}
		want := [][]term.Value{ints(1, 9), ints(3, 3)}
		if got := pinAll(t, cr, db); !reflect.DeepEqual(got, want) {
			t.Errorf("bindings = %v, want %v", got, want)
		}
	})
	run("constant and repeated variable", func(t *testing.T) {
		cr, res := compileFirst(t, `link(X,X,"self",Y) -> loop(X,Y).`)
		link := func(a, b int64, tag string, y int64) ast.Fact {
			return ast.NewFact("link", term.Int(a), term.Int(b), term.String(tag), term.Int(y))
		}
		db := loadDB(t, res, link(1, 1, "self", 10), link(1, 2, "self", 11), link(3, 3, "other", 12), link(4, 4, "self", 13))
		want := [][]term.Value{ints(1, 10), ints(4, 13)}
		if got := pinAll(t, cr, db); !reflect.DeepEqual(got, want) {
			t.Errorf("bindings = %v, want %v", got, want)
		}
	})
}

// TestPinNeverStoredMetaMatchesNothing: a delta is a stored fact; metadata
// no relation ever stored has no row to pin.
func TestPinNeverStoredMetaMatchesNothing(t *testing.T) {
	cr, res := compileFirst(t, `p(X,V) -> q(X,V).`)
	db := loadDB(t, res, ast.NewFact("p", term.Int(1), term.Int(5)))
	foreign := &core.FactMeta{Fact: ast.NewFact("p", term.Int(1), term.Int(5)), RuleID: -1}
	if foreign.RowIndex() != -1 {
		t.Fatalf("a FactMeta literal must read as not stored, got row %d", foreign.RowIndex())
	}
	if got := collectMatches(t, cr, db, 0, foreign); len(got) != 0 {
		t.Errorf("a never-stored fact matched: %v", got)
	}
	if !db.Insert(&core.FactMeta{Fact: ast.NewFact("p", term.Int(2), term.Int(6)), RuleID: -1}) {
		t.Fatal("insert failed")
	}
	stored := db.Lookup("p").At(1)
	if got := collectMatches(t, cr, db, 0, stored); len(got) != 1 {
		t.Errorf("once inserted the fact must pin: %v", got)
	}
}
