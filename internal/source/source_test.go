package source

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery(`$2 > 10, $1 != "acme", 3 <= $3`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Conjunct{
		{Col: 2, Op: ast.CmpGt, Val: term.Int(10)},
		{Col: 1, Op: ast.CmpNeq, Val: term.String("acme")},
		{Col: 3, Op: ast.CmpGe, Val: term.Int(3)}, // flipped
	}
	if !reflect.DeepEqual(q.Conjuncts, want) {
		t.Errorf("conjuncts = %+v, want %+v", q.Conjuncts, want)
	}
	if q.MaxCol() != 3 {
		t.Errorf("MaxCol = %d", q.MaxCol())
	}
	// A quoted constant containing a comma and an operator stays one conjunct.
	q, err = ParseQuery(`$1 == "a,<b"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Conjuncts) != 1 || q.Conjuncts[0].Val != term.String("a,<b") {
		t.Errorf("quoted constant mangled: %+v", q.Conjuncts)
	}
	for _, bad := range []string{"", "$1", "$1 ~ 2", "$1 > $2", "1 > 2", "$0 > 1", "$x > 1", "$1 >"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", bad)
		}
	}
}

// TestQueryMatchSemantics: a conjunct is the comparison rule of rule
// conditions, ast.CmpOp.Holds (its table is in package ast), applied to
// the row's column and the constant; a missing column never matches.
func TestQueryMatchSemantics(t *testing.T) {
	cells := []term.Value{term.Int(3), term.Float(1), term.String("z"), term.Null(1), term.Float(math.NaN())}
	for _, src := range []string{"$1 == 1", "$1 != 1", "$1 < 2.5", "$1 <= 1", "$1 > z", "$1 >= 2.5"} {
		q := mustQuery(t, src)
		c := q.Conjuncts[0]
		for _, v := range cells {
			if got, want := q.Matches([]term.Value{v}), c.Op.Holds(v, c.Val); got != want {
				t.Errorf("%s on %v: %v, Holds says %v", src, v, got, want)
			}
		}
		if q.Matches(nil) {
			t.Errorf("%s matched a row without its column", src)
		}
	}
}

func mustQuery(t *testing.T, s string) *Query {
	t.Helper()
	q, err := ParseQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCSVQueryPushdown(t *testing.T) {
	path := writeFile(t, "p.csv", "a,5\nb,11\nc,20\nd,3\n")
	q := mustQuery(t, "$2 > 10")
	cur, err := Open(context.Background(), CSV{Comma: ','}, Binding{Pred: "p", Target: path, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// The csv driver pushes the query: the cursor itself only surfaces
	// matching rows (no post-filter wrapper involved).
	if _, wrapped := cur.(*checkedCursor).cur.(*filteredCursor); wrapped {
		t.Fatal("csv driver did not push the query down (post-filter wrapper applied)")
	}
	rows := drain(t, cur)
	if len(rows) != 2 {
		t.Fatalf("surfaced %d rows, want 2: %v", len(rows), rows)
	}
	if rows[0][0] != term.String("b") || rows[1][0] != term.String("c") {
		t.Errorf("rows = %v", rows)
	}
}

// stubSource yields fixed rows and does not implement PushdownSource:
// Open must post-filter its rows.
type stubSource struct{ rows [][]term.Value }

func (s stubSource) Open(context.Context, Binding) (RecordCursor, error) {
	return &memCursor{rows: s.rows}, nil
}

func TestPostFilterFallback(t *testing.T) {
	src := stubSource{rows: [][]term.Value{
		{term.Int(1)}, {term.Int(15)}, {term.Int(30)},
	}}
	cur, err := Open(context.Background(), src, Binding{Pred: "p", Query: mustQuery(t, "$1 > 10")})
	if err != nil {
		t.Fatal(err)
	}
	if _, wrapped := cur.(*checkedCursor).cur.(*filteredCursor); !wrapped {
		t.Fatal("non-pushdown source was not post-filtered")
	}
	rows := drain(t, cur)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// @mapping over a driver without column pushdown is rejected.
	if _, err := Open(context.Background(), src, Binding{Pred: "p", Columns: []string{"a"}}); err == nil {
		t.Fatal("mapping over a non-pushdown source succeeded")
	}
	// The post-filter must not compact the driver's chunk in place: a
	// second scan over the same retained rows sees them intact.
	if !reflect.DeepEqual(src.rows, [][]term.Value{
		{term.Int(1)}, {term.Int(15)}, {term.Int(30)},
	}) {
		t.Fatalf("post-filter corrupted driver-owned rows: %v", src.rows)
	}
}

func TestCSVMappingProjection(t *testing.T) {
	path := writeFile(t, "wide.csv", "id,name,score,junk\n1,ann,9,x\n2,bo,4,y\n")
	cur, err := Open(context.Background(), CSV{Comma: ','},
		Binding{Pred: "p", Target: path, Columns: []string{"score", "name"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := drain(t, cur)
	want := [][]term.Value{
		{term.Int(9), term.String("ann")},
		{term.Int(4), term.String("bo")},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
	// Unknown mapped column fails at Open.
	if _, err := Open(context.Background(), CSV{Comma: ','},
		Binding{Pred: "p", Target: path, Columns: []string{"nope"}}); err == nil {
		t.Fatal("unknown mapped column succeeded")
	}
}

// roundTripValues covers every value kind, including the adversarial
// strings whose bare rendering would re-parse as another kind.
func roundTripValues() []term.Value {
	return []term.Value{
		term.Int(42), term.Int(-7),
		term.Float(0.5), term.Float(1.0), term.Float(-2e30),
		term.Bool(true), term.Bool(false),
		term.Date(12345),
		term.Null(3),
		term.Set([]term.Value{term.Int(1), term.String("a"), term.Float(1.0)}),
		term.String("plain"), term.String("two words"),
		term.String("42"), term.String("1.5"), term.String("#t"), term.String("#f"),
		term.String("d99"), term.String("_:n4"), term.String("{1,2}"),
		term.String(""), term.String(`"already quoted"`),
		term.String("comma,and\"quote"), term.String("NaN"),
	}
}

func TestCSVRoundTripAllKinds(t *testing.T) {
	vals := roundTripValues()
	rows := make([][]term.Value, len(vals))
	for i, v := range vals {
		rows[i] = []term.Value{v, term.Int(int64(i))}
	}
	for _, name := range []string{"csv", "tsv"} {
		d, _ := Lookup(name)
		path := filepath.Join(t.TempDir(), "rt."+name)
		b := Binding{Pred: "p", Target: path}
		if err := d.(Sink).WriteAll(context.Background(), b, rows); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(context.Background(), d, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rows) {
			for i := range rows {
				if i < len(got) && !reflect.DeepEqual(got[i], rows[i]) {
					t.Errorf("%s row %d: wrote %v (kind %v), read %v (kind %v)",
						name, i, rows[i][0], rows[i][0].Kind(), got[i][0], got[i][0].Kind())
				}
			}
			t.Fatalf("%s round trip not identity", name)
		}
	}
}

func TestJSONLRoundTripAllKinds(t *testing.T) {
	vals := roundTripValues()
	rows := make([][]term.Value, len(vals))
	for i, v := range vals {
		rows[i] = []term.Value{v}
	}
	path := filepath.Join(t.TempDir(), "rt.jsonl")
	b := Binding{Pred: "p", Target: path}
	if err := (JSONL{}).WriteAll(context.Background(), b, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(context.Background(), JSONL{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		for i := range rows {
			if i < len(got) && !reflect.DeepEqual(got[i], rows[i]) {
				t.Errorf("row %d: wrote %v (kind %v), read %v (kind %v)",
					i, rows[i][0], rows[i][0].Kind(), got[i][0], got[i][0].Kind())
			}
		}
		t.Fatal("jsonl round trip not identity")
	}
}

func TestJSONLObjectsWithMapping(t *testing.T) {
	path := writeFile(t, "p.jsonl",
		`{"name":"ann","score":9,"junk":true}`+"\n"+
			`{"name":"bo","score":4}`+"\n")
	b := Binding{Pred: "p", Target: path, Columns: []string{"score", "name"}}
	rows, err := ReadAll(context.Background(), JSONL{}, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]term.Value{
		{term.Int(9), term.String("ann")},
		{term.Int(4), term.String("bo")},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
	// Objects without a mapping are an error.
	if _, err := ReadAll(context.Background(), JSONL{}, Binding{Pred: "p", Target: path}); err == nil {
		t.Fatal("object rows without @mapping succeeded")
	}
}

func TestMemDriverStoreScanWrite(t *testing.T) {
	m := NewMem()
	m.StoreColumns("t", []string{"a", "b"}, [][]term.Value{
		{term.Int(1), term.String("x")},
		{term.Int(20), term.String("y")},
	})
	rows, err := ReadAll(context.Background(), m, Binding{Pred: "p", Target: "t",
		Columns: []string{"b"}, Query: mustQuery(t, "$1 == \"y\"")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != term.String("y") {
		t.Errorf("rows = %v", rows)
	}
	if _, err := ReadAll(context.Background(), m, Binding{Pred: "p", Target: "absent"}); err == nil {
		t.Fatal("absent table succeeded")
	}
	// A mapped binding over an absent table reports the data-level cause
	// (table not stored), not a bogus capability complaint.
	_, err = ReadAll(context.Background(), m,
		Binding{Pred: "p", Target: "absent", Columns: []string{"a"}})
	if err == nil || !strings.Contains(err.Error(), "not stored") {
		t.Fatalf("mapped absent table: %v", err)
	}
	if err := m.WriteAll(context.Background(), Binding{Target: "out"}, rows); err != nil {
		t.Fatal(err)
	}
	if got := m.Rows("out"); !reflect.DeepEqual(got, rows) {
		t.Errorf("Rows(out) = %v", got)
	}
}

func TestMemStoreFuncDrainsOnce(t *testing.T) {
	m := NewMem()
	i := 0
	m.StoreFunc("t", func() ([]term.Value, bool) {
		if i >= 5 {
			return nil, false
		}
		i++
		return []term.Value{term.Int(int64(i))}, true
	})
	for pass := 0; pass < 2; pass++ {
		rows, err := ReadAll(context.Background(), m, Binding{Pred: "p", Target: "t"})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Fatalf("pass %d: %d rows", pass, len(rows))
		}
	}
	if i != 5 {
		t.Errorf("iterator pulled %d times", i)
	}
}

// TestMemConcurrency scans and stores concurrently under -race.
func TestMemConcurrency(t *testing.T) {
	m := NewMem()
	base := [][]term.Value{{term.Int(1)}, {term.Int(2)}, {term.Int(3)}}
	m.Store("shared", base)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				switch g % 3 {
				case 0: // scan the shared table
					rows, err := ReadAll(context.Background(), m, Binding{Pred: "p", Target: "shared"})
					if err != nil || len(rows) != 3 {
						t.Errorf("scan: %v (%d rows)", err, len(rows))
						return
					}
				case 1: // churn a private table
					name := fmt.Sprintf("t%d", g)
					m.Store(name, base)
					m.Rows(name)
				default: // write through the sink
					name := fmt.Sprintf("out%d", g)
					if err := m.WriteAll(context.Background(), Binding{Target: name}, base); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{"csv", "tsv", "jsonl", "mem"} {
		d, ok := Lookup(name)
		if !ok {
			t.Fatalf("builtin driver %q not registered", name)
		}
		if _, ok := d.(Source); !ok {
			t.Errorf("driver %q is not a Source", name)
		}
		if _, ok := d.(Sink); !ok {
			t.Errorf("driver %q is not a Sink", name)
		}
		if _, ok := d.(PushdownSource); !ok {
			t.Errorf("driver %q is not a PushdownSource", name)
		}
	}
	names := DriverNames()
	if len(names) < 4 {
		t.Errorf("DriverNames = %v", names)
	}
}

func TestChunkedScan(t *testing.T) {
	n := 2*ChunkSize + 17
	var sb []byte
	for i := 0; i < n; i++ {
		sb = append(sb, []byte(fmt.Sprintf("r%d,%d\n", i, i))...)
	}
	path := writeFile(t, "big.csv", string(sb))
	cur, err := Open(context.Background(), CSV{Comma: ','}, Binding{Pred: "p", Target: path})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	chunks, rows := 0, 0
	for {
		chunk, err := cur.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			break
		}
		if len(chunk) > ChunkSize {
			t.Fatalf("chunk of %d rows", len(chunk))
		}
		chunks++
		rows += len(chunk)
	}
	if rows != n {
		t.Fatalf("scanned %d rows, want %d", rows, n)
	}
	if chunks < 3 {
		t.Fatalf("scan took %d chunks, want >= 3", chunks)
	}
}

func TestCursorCancelIsResumable(t *testing.T) {
	path := writeFile(t, "p.csv", "a,1\nb,2\n")
	cur, err := Open(context.Background(), CSV{Comma: ','}, Binding{Pred: "p", Target: path})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cur.Next(cancelled); err == nil {
		t.Fatal("cancelled Next succeeded")
	}
	rows := drain(t, cur) // nothing was consumed by the cancelled pull
	if len(rows) != 2 {
		t.Fatalf("resumed scan got %d rows", len(rows))
	}
}

func drain(t *testing.T, cur RecordCursor) [][]term.Value {
	t.Helper()
	var rows [][]term.Value
	for {
		chunk, err := cur.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			return rows
		}
		rows = append(rows, chunk...)
	}
}
