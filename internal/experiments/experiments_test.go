package experiments

import "testing"

// TestAllFiguresTiny runs every figure at a tiny scale, catching breakage
// in any scenario end to end, and pins the registry: IDs are unique, each
// table carries its entry's ID, and two figures have their rows at this
// scale — Fig5a's count does not depend on it; Fig8's DbSize axis floors
// its three smallest points to one 400-fact run, measured once.
func TestAllFiguresTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := All(0.002)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if len(tables) != len(Figures) {
		t.Fatalf("expected %d tables, got %d", len(Figures), len(tables))
	}
	wantRows := map[string]int{"Fig5a": 8, "Fig8": 14}
	seen := map[string]bool{}
	for i, tb := range tables {
		id := Figures[i].ID
		if seen[id] {
			t.Errorf("figure ID %s registered twice", id)
		}
		seen[id] = true
		if tb.ID != id {
			t.Errorf("figure %s returned table %s", id, tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("table %s has no rows", tb.ID)
		}
		if n, ok := wantRows[id]; ok && len(tb.Rows) != n {
			t.Errorf("table %s has %d rows, want %d", id, len(tb.Rows), n)
		}
		if tb.String() == "" {
			t.Errorf("table %s renders empty", tb.ID)
		}
	}
}

// TestFig7OutputsAgree checks that the two termination strategies Fig. 7
// compares answer AllPSC alike at every point of its axis. Only the
// answers are asserted: the paper's claim that the trivial isomorphism
// check's time diverges with scale is a timing, read from the Fig7 table
// (cmd/vadabench, BenchmarkFigures/Fig7).
func TestFig7OutputsAgree(t *testing.T) {
	tb, err := Figure7(0.004)
	if err != nil {
		t.Fatalf("fig7: %v", err)
	}
	byParam := map[string][2]int{}
	for _, r := range tb.Rows {
		v := byParam[r.Param]
		if r.System == "full" {
			v[0] = r.Output
		} else {
			v[1] = r.Output
		}
		byParam[r.Param] = v
	}
	for p, v := range byParam {
		if v[0] != v[1] {
			t.Errorf("persons=%s: full=%d trivial=%d outputs differ", p, v[0], v[1])
		}
	}
}
