package source

import (
	"context"
	"math"
	"strconv"
	"testing"

	"repro/internal/term"
)

// referenceParseCell is ParseCell over the strconv-first literal parser
// term.ParseLiteral used to be: tagged forms, then #t/#f, quoted strings,
// ParseInt, ParseFloat, and a string for everything else.
func referenceParseCell(s string) term.Value {
	if v, ok := parseTaggedCell(s); ok {
		return v
	}
	switch {
	case s == "":
		return term.String(s)
	case s == "#t":
		return term.Bool(true)
	case s == "#f":
		return term.Bool(false)
	case s[0] == '"':
		if u, err := strconv.Unquote(s); err == nil {
			return term.String(u)
		}
		return term.String(s)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return term.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return term.Float(f)
	}
	return term.String(s)
}

// TestParseCellMatchesReference: every cell shape decodes to the value it
// decoded to when each cell went through two strconv parses first.
func TestParseCellMatchesReference(t *testing.T) {
	for _, s := range []string{
		"", "n1", "n123", "e5", ".", "+", "-", "+5", "-.5", "1e5", "1E+3", "0x1p-2", "1_000", "1.2.3",
		"Inf", "+inf", "-Infinity", "nan", "NaN", "infx", "#t", "#f", `"quoted"`, `"1"`, `"unterminated`,
		"d12", "d", "d1x", "_:n7", "_:n", "_:nx", "{a,b}", "{1,1.0}", "{}", "{", "１２３", "٣", "-0.0", "007",
		"9223372036854775808", "acme", "co_17", "true",
	} {
		got, want := ParseCell(s), referenceParseCell(s)
		same := got == want
		if got.Kind() == term.KindFloat && want.Kind() == term.KindFloat {
			same = math.Float64bits(got.FloatVal()) == math.Float64bits(want.FloatVal())
		}
		if !same {
			t.Errorf("ParseCell(%q) = %v (%v), reference %v (%v)", s, got, got.Kind(), want, want.Kind())
		}
	}
}

// TestParseCellStringAllocatesNothing: a string cell is classified, not
// parsed and failed twice.
func TestParseCellStringAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ParseCell("n123") }); n != 0 {
		t.Errorf(`ParseCell("n123") allocates %.0f times, want 0`, n)
	}
}

// TestChunkRowsShareOneBlock: the rows of a chunk are cut from one backing
// array with their capacity clipped, a row the pushdown selection rejects
// gives its slot to the next row, and a record of another width gets a
// slice of its own — on both text drivers.
func TestChunkRowsShareOneBlock(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		drv  Source
		path string
	}{
		{"csv", CSV{Comma: ','}, writeFile(t, "p.csv", "a,1\nb,20\nc,2,extra\nd,30\ne,3\n")},
		{"jsonl", JSONL{}, writeFile(t, "p.jsonl", `["a",1]`+"\n"+`["b",20]`+"\n"+`["c",2,"extra"]`+"\n"+`["d",30]`+"\n"+`["e",3]`+"\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur, err := tc.drv.Open(ctx, Binding{Pred: "p", Target: tc.path, Query: mustQuery(t, "$2 < 10")})
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			rows, err := cur.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := [][]term.Value{
				{term.String("a"), term.Int(1)},
				{term.String("c"), term.Int(2), term.String("extra")},
				{term.String("e"), term.Int(3)},
			}
			if len(rows) != len(want) {
				t.Fatalf("rows = %v, want %v", rows, want)
			}
			for i := range want {
				if len(rows[i]) != len(want[i]) || cap(rows[i]) != len(rows[i]) {
					t.Fatalf("row %d = %v (cap %d), want %v with its capacity clipped", i, rows[i], cap(rows[i]), want[i])
				}
				for j := range want[i] {
					if rows[i][j] != want[i][j] {
						t.Fatalf("row %d = %v, want %v", i, rows[i], want[i])
					}
				}
			}
		})
	}
}

// TestChunkRowsSlots pins the carving itself: consecutive rows are adjacent
// in one block, a dropped row's slot is handed out again, appending to a row
// reallocates instead of writing into its neighbour, and an off-width row
// never touches the block.
func TestChunkRowsSlots(t *testing.T) {
	var c chunkRows
	a, b := c.next(2), c.next(2)
	c.drop()
	if b2 := c.next(2); &b2[0] != &b[0] {
		t.Fatal("a dropped row's slot must be reused by the next row")
	}
	b[0] = term.Int(7)
	if a = append(a, term.Int(9)); b[0] != term.Int(7) {
		t.Fatal("appending to a row wrote into its neighbour")
	}
	off := c.off
	if w := c.next(3); len(w) != 3 || c.off != off {
		t.Fatalf("an off-width row must come from outside the block (len %d, off %d -> %d)", len(w), off, c.off)
	}
	c.drop() // dropping an off-width row gives nothing back
	if c.off != off {
		t.Fatal("dropping an off-width row moved the block offset")
	}
	for i := 2; i < ChunkSize; i++ {
		c.next(2)
	}
	if extra := c.next(2); len(extra) != 2 || c.off != ChunkSize*2 {
		t.Fatal("a row past the block's end must fall back to its own slice")
	}
}
