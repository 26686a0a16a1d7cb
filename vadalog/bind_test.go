package vadalog

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/source"
	"repro/internal/term"
)

// TestCompileBindingValidation: unknown drivers, @bind+@qbind mixes,
// arity-mismatched mappings, malformed and out-of-range queries are all
// compile errors positioned at the annotation.
func TestCompileBindingValidation(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown driver",
			`@bind("p","postgres","dsn").
			 p(X) -> q(X).`,
			`unknown driver "postgres"`},
		{"bind and qbind on one predicate",
			`@bind("p","csv","a.csv").
			 @qbind("p","csv","b.csv","$1 > 0").
			 p(X) -> q(X).`,
			"both @bind and @qbind"},
		{"mapping arity mismatch",
			`@bind("p","csv","a.csv").
			 @mapping("p","a","b","c").
			 p(X,Y) -> q(X).`,
			"3 columns for arity-2 predicate"},
		{"duplicate mapping",
			`@mapping("p","a","b").
			 @mapping("p","b","a").
			 p(X,Y) -> q(X).`,
			"duplicate @mapping"},
		{"malformed query",
			`@qbind("p","csv","a.csv","$1 ~ 2").
			 p(X) -> q(X).`,
			"no comparison operator"},
		{"query column out of range",
			`@qbind("p","csv","a.csv","$5 > 1").
			 p(X,Y) -> q(X).`,
			"references column $5 of an arity-2 predicate"},
		{"qbind on output sink",
			`@output("q").
			 @qbind("q","csv","out.csv","$1 > 0").
			 p(X) -> q(X).`,
			"@output sink"},
	}
	pos := regexp.MustCompile(`vadalog: \d+:\d+: `)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := MustParse(tc.src)
			_, err := Compile(prog, nil)
			if err == nil {
				t.Fatalf("Compile succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if !pos.MatchString(err.Error()) {
				t.Errorf("error %q lacks a line:col position", err)
			}
			// The compile-per-run shim surfaces the same error.
			if _, err := Compile(prog, nil); err == nil {
				t.Error("NewSession succeeded on an invalid binding")
			}
		})
	}
}

// TestMappingWideCSV: a wide CSV with a header maps onto a narrower
// predicate via @mapping — column selection and reorder.
func TestMappingWideCSV(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "people.csv")
	if err := os.WriteFile(in, []byte(
		"id,name,score,notes\n"+
			"1,ann,9,skip me\n"+
			"2,bo,4,me too\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`
		@bind("p","csv","` + in + `").
		@mapping("p","score","name").
		p(S,N), S > 5 -> top(N).
		@output("top").
	`)
	res, err := MustCompile(prog, nil).Query(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Output("p") // key-sorted by ApplyPost: (4,bo) before (9,ann)
	if len(p) != 2 {
		t.Fatalf("p facts: %v", p)
	}
	if p[1].Args[0] != term.Int(9) || p[1].Args[1] != term.String("ann") {
		t.Errorf("projection wrong: %v", p)
	}
	top := res.Output("top")
	if len(top) != 1 || top[0].Args[0] != term.String("ann") {
		t.Errorf("top = %v", top)
	}
}

// TestQbindPushdownRowCount: the @qbind selection runs inside the csv
// driver, so only matching rows ever surface to the engine — counted via
// the session's admitted-facts metric.
func TestQbindPushdownRowCount(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.csv")
	var rows strings.Builder
	matching := 0
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&rows, "r%d,%d\n", i, i*3)
		if i*3 > 10 {
			matching++
		}
	}
	if err := os.WriteFile(in, []byte(rows.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `
		p(X,N) -> q(X,N).
		@output("q").
		@qbind("p","csv","` + in + `","$2 > 10").
	`
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		res, err := MustCompile(MustParse(src), &Options{Engine: engine}).
			Query(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Output("q")); got != matching {
			t.Errorf("engine %d: output %d rows, want %d", engine, got, matching)
		}
		// Derivations counts every admitted fact: the p rows the driver
		// surfaced plus one q per surfaced row. 10 rows are in the file;
		// only the matching ones may reach the engine.
		if res.Derivations() != 2*matching {
			t.Errorf("engine %d: %d admissions, want %d (pushdown failed?)",
				engine, res.Derivations(), 2*matching)
		}
	}
}

// TestStreamingLoadMultiChunk: inputs larger than one cursor chunk load
// completely, on both engines.
func TestStreamingLoadMultiChunk(t *testing.T) {
	n := 2*source.ChunkSize + 5
	dir := t.TempDir()
	in := filepath.Join(dir, "edge.csv")
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "n%d,n%d\n", i, i+1)
	}
	if err := os.WriteFile(in, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `
		@bind("edge","csv","` + in + `").
	`
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		res, err := MustCompile(MustParse(src), &Options{Engine: engine}).
			Query(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Output("edge")); got != n {
			t.Errorf("engine %d: loaded %d facts, want %d", engine, got, n)
		}
	}
}

// chunkyDriver yields fixed rows in small chunks and can cancel a
// context after the first chunk is delivered — the mid-load
// cancellation harness.
type chunkyDriver struct {
	rows   [][]term.Value
	chunk  int
	cancel context.CancelFunc
	opens  int
	closes int
}

func (d *chunkyDriver) Open(ctx context.Context, b SourceBinding) (RecordCursor, error) {
	d.opens++
	return &chunkyCursor{d: d}, nil
}

type chunkyCursor struct {
	d   *chunkyDriver
	pos int
}

func (c *chunkyCursor) Next(ctx context.Context) ([][]term.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.pos >= len(c.d.rows) {
		return nil, nil
	}
	end := c.pos + c.d.chunk
	if end > len(c.d.rows) {
		end = len(c.d.rows)
	}
	chunk := c.d.rows[c.pos:end]
	c.pos = end
	if c.d.cancel != nil {
		c.d.cancel() // the next between-chunk check observes it
		c.d.cancel = nil
	}
	return chunk, nil
}

func (c *chunkyCursor) Close() error {
	c.d.closes++
	return nil
}

// TestCancelMidLoadResumes: cancelling mid-load leaves a resumable
// session — the open cursor keeps its position, and a later run with a
// live context finishes the load without losing or re-reading rows
// (mirrors the chase engine's requeue-on-cancel guarantee).
func TestCancelMidLoadResumes(t *testing.T) {
	const n = 10
	rows := make([][]term.Value, n)
	for i := range rows {
		rows[i] = []term.Value{term.Int(int64(i))}
	}
	ctx, cancel := context.WithCancel(context.Background())
	drv := &chunkyDriver{rows: rows, chunk: 3, cancel: cancel}
	opts := (&Options{}).RegisterDriver("chunky", drv)
	prog := MustParse(`
		@bind("p","chunky","t").
	`)
	sess := newSession(t, prog, opts)
	if err := sess.RunContext(ctx); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if sess.Derivations() >= n {
		t.Fatalf("load did not stop at the cancellation: %d facts", sess.Derivations())
	}
	if err := sess.RunContext(context.Background()); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := len(sess.Output("p")); got != n {
		t.Errorf("resumed session has %d facts, want %d", got, n)
	}
	if sess.Derivations() != n {
		t.Errorf("derivations = %d, want %d (rows lost or double-loaded)", sess.Derivations(), n)
	}
	if drv.opens != 1 {
		t.Errorf("cursor reopened %d times; resume must continue the same cursor", drv.opens)
	}
}

// TestMemDriverEndToEnd: Go-API rows in, reasoning, Go-API rows out,
// no filesystem involved.
func TestMemDriverEndToEnd(t *testing.T) {
	mem := DefaultMem()
	mem.Store("e2e.own", [][]term.Value{
		{term.String("a"), term.String("b"), term.Float(0.9)},
		{term.String("b"), term.String("c"), term.Float(0.8)},
		{term.String("b"), term.String("d"), term.Float(0.2)},
	})
	prog := MustParse(`
		own(X,Y,W), W > 0.5 -> control(X,Y).
		@output("control").
		@bind("own","mem","e2e.own").
		@bind("control","mem","e2e.control").
		@post("control","orderBy",1).
	`)
	if _, err := MustCompile(prog, nil).Query(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	got := mem.Rows("e2e.control")
	if len(got) != 2 {
		t.Fatalf("control rows: %v", got)
	}
	if got[0][0] != term.String("a") || got[0][1] != term.String("b") {
		t.Errorf("rows = %v", got)
	}
}

// TestMemDriverConcurrentQueries: concurrent sessions over a shared
// Reasoner with a mem-bound input are race-free (run under -race).
func TestMemDriverConcurrentQueries(t *testing.T) {
	mem := source.NewMem()
	mem.Store("own", [][]term.Value{
		{term.String("a"), term.String("b"), term.Float(0.9)},
		{term.String("b"), term.String("c"), term.Float(0.8)},
	})
	opts := (&Options{}).RegisterDriver("privmem", mem)
	prog := MustParse(`
		own(X,Y,W), W > 0.5 -> control(X,Y).
		control(X,Y), own(Y,Z,W), W > 0.5 -> control(X,Z).
		@output("control").
		@bind("own","privmem","own").
	`)
	r := MustCompile(prog, opts)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				res, err := r.Query(context.Background(), nil)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(res.Output("control")) != 3 {
					t.Errorf("control = %v", res.Output("control"))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// dbBytes renders the session's final database byte-exactly (rows in
// admission order, retraction marks, derivation and null counters).
func dbBytes(t *testing.T, s *Session) string {
	t.Helper()
	db := s.core.DB()
	var sb strings.Builder
	for _, pred := range db.Predicates() {
		rel := db.Lookup(pred)
		fmt.Fprintf(&sb, "%s[%d]\n", pred, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			m := rel.At(i)
			if m.Retracted {
				sb.WriteString("  x ")
			} else {
				sb.WriteString("    ")
			}
			sb.WriteString(m.Fact.String())
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintf(&sb, "derivations=%d nulls=%d\n", s.Derivations(), db.Nulls.Count())
	return sb.String()
}

// TestStreamingMatchesEagerByteIdentical: the streaming chunked load
// produces a byte-identical final database to materializing the whole
// CSV up front and loading it as staged facts, on both engines.
func TestStreamingMatchesEagerByteIdentical(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "own.csv")
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "c%d,c%d,0.%d\n", i%20, (i+7)%20, 1+i%9)
	}
	if err := os.WriteFile(in, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	rules := `
		own(X,Y,W), W > 0.5 -> control(X,Y).
		control(X,Y), own(Y,Z,W), W > 0.5 -> control(X,Z).
		seed(company). seed(X) -> exists(X).
		@output("control").
	`
	bound := MustParse(rules + `@bind("own","csv","` + in + `").`)
	plain := MustParse(rules)
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		opts := &Options{Engine: engine}
		streaming := newSession(t, bound, opts)
		if err := streaming.Run(); err != nil {
			t.Fatal(err)
		}
		facts, err := ReadCSV("own", in)
		if err != nil {
			t.Fatal(err)
		}
		eager := newSession(t, plain, opts)
		eager.Load(facts...)
		if err := eager.Run(); err != nil {
			t.Fatal(err)
		}
		sBytes, eBytes := dbBytes(t, streaming), dbBytes(t, eager)
		if sBytes != eBytes {
			t.Errorf("engine %d: streaming and eager databases diverge (%d vs %d bytes)",
				engine, len(sBytes), len(eBytes))
		}
	}
}

// TestJSONLEndToEnd: jsonl input and output bindings round-trip typed
// values through a reasoning run.
func TestJSONLEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "own.jsonl")
	out := filepath.Join(dir, "big.jsonl")
	if err := os.WriteFile(in, []byte(
		`["a", 5]`+"\n"+`["b", 11]`+"\n"+`["c", 20]`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`
		p(X,N), N > 10 -> big(X,N).
		@output("big").
		@bind("p","jsonl","` + in + `").
		@bind("big","jsonl","` + out + `").
		@post("big","orderBy",1).
	`)
	if _, err := MustCompile(prog, nil).Query(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	rows, err := source.ReadAll(context.Background(), source.JSONL{},
		source.Binding{Pred: "big", Target: out})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != term.String("b") || rows[0][1] != term.Int(11) {
		t.Errorf("rows = %v", rows)
	}
}

// TestImportedNullsDoNotCollide: loading "_:nK" cells reserves their
// ids, so an existential rule firing afterwards mints a distinct null
// instead of reusing an imported identity.
func TestImportedNullsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.csv")
	if err := os.WriteFile(in, []byte("_:n1,a\n_:n7,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`
		p(N,X) -> q(Z,X).
		@output("q").
		@bind("p","csv","` + in + `").
	`)
	res, err := MustCompile(prog, nil).Query(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[term.Value]bool{term.Null(1): true, term.Null(7): true}
	for _, f := range res.Output("q") {
		z := f.Args[0]
		if !z.IsNull() {
			t.Fatalf("existential head not a null: %v", f)
		}
		if seen[z] {
			t.Fatalf("minted null %v collides with an imported id", z)
		}
	}
}

// TestLoadedNullsDoNotCollide: the Session.Load path (ReadCSV facts,
// the CLI -facts flag) reserves imported null ids exactly like the
// @bind streaming path does.
func TestLoadedNullsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.csv")
	if err := os.WriteFile(in, []byte("_:n1,a\n_:n7,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	facts, err := ReadCSV("p", in)
	if err != nil {
		t.Fatal(err)
	}
	if !facts[0].Args[0].IsNull() {
		t.Fatalf("ParseCell did not materialize the null: %v", facts[0])
	}
	prog := MustParse(`
		p(N,X) -> q(Z,X).
		@output("q").
	`)
	res, err := MustCompile(prog, nil).Query(context.Background(), facts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Output("q") {
		if z := f.Args[0]; z == term.Null(1) || z == term.Null(7) {
			t.Fatalf("minted null %v collides with a loaded id", z)
		}
	}
}

// TestWriteCSVRoundTripTyped: the write→read identity at the public API
// level — a string that looks like an int comes back a string.
func TestWriteCSVRoundTripTyped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	facts := []Fact{
		MakeFact("p", Str("42"), Int(42), Flt(1.0), Str(""), Bool(true)),
	}
	if err := WriteCSV(path, facts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("p", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("facts = %v", got)
	}
	for i, want := range facts[0].Args {
		if got[0].Args[i] != want {
			t.Errorf("arg %d: wrote %v (%v), read %v (%v)",
				i, want, want.Kind(), got[0].Args[i], got[0].Args[i].Kind())
		}
	}
}
