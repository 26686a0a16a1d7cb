package vadalog

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/gen/graphs"
	"repro/internal/gen/iwarded"
	"repro/internal/source"
	"repro/internal/term"
)

// tableDriver serves named tables of rows in chunks of a fixed size and
// counts what sessions do to it — the double behind the lazy-input tests.
// before, when set, runs ahead of every chunk pull and can fail it (a pull
// that fails consumes nothing).
type tableDriver struct {
	tables map[string][][]term.Value
	chunk  int      // rows per pull; <= 0 serves a whole table at once
	opened []string // targets, in the order they were opened
	nexts  int      // successful chunk pulls, the final empty ones included
	closes int
	before func(target string, pos int) error
}

type tableCursor struct {
	d      *tableDriver
	target string
	pos    int
}

func (d *tableDriver) Open(ctx context.Context, b SourceBinding) (RecordCursor, error) {
	d.opened = append(d.opened, b.Target)
	return &tableCursor{d: d, target: b.Target}, nil
}

func (c *tableCursor) Next(ctx context.Context) ([][]term.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.d.before != nil {
		if err := c.d.before(c.target, c.pos); err != nil {
			return nil, err
		}
	}
	c.d.nexts++
	rows := c.d.tables[c.target]
	end := len(rows)
	if c.d.chunk > 0 {
		end = min(c.pos+c.d.chunk, end)
	}
	chunk := rows[c.pos:end]
	c.pos = end
	return chunk, nil
}

func (c *tableCursor) Close() error {
	c.d.closes++
	return nil
}

// pulls is how many Next calls drain a table of n rows: its chunks plus the
// empty one that reports exhaustion.
func (d *tableDriver) pulls(n int) int {
	if d.chunk <= 0 {
		return 2
	}
	return (n+d.chunk-1)/d.chunk + 1
}

// bindTables returns prog with its own bindings dropped and every predicate
// of facts bound, in order of first appearance, to a tableDriver serving
// that predicate's rows chunk at a time, plus the options that register
// the driver.
func bindTables(prog *Program, facts []Fact, chunk int, opts Options) (*Program, *tableDriver, *Options) {
	d := &tableDriver{tables: map[string][][]term.Value{}, chunk: chunk}
	bound := *prog
	bound.Bindings = nil
	for _, f := range facts {
		if _, seen := d.tables[f.Pred]; !seen {
			bound.Bindings = append(bound.Bindings, ast.Binding{Pred: f.Pred, Driver: "tbl", Target: f.Pred})
		}
		d.tables[f.Pred] = append(d.tables[f.Pred], f.Args)
	}
	opts.Drivers = nil
	return &bound, d, opts.RegisterDriver("tbl", d)
}

// TestLazyInputMechanism pins, by counting cursor calls and without a
// clock, that the pipeline pulls its input: the first answer of a stream
// costs one chunk, not the source; a source declared later is not opened
// before it is needed; and a program with a negated atom reads everything
// first.
func TestLazyInputMechanism(t *testing.T) {
	bg := context.Background()
	const chunks, width = 120, 4
	edges := chainFacts("n", chunks*width)
	extra := []Fact{MakeFact("extra", Int(1)), MakeFact("extra", Int(2))}

	t.Run("first answer costs one chunk", func(t *testing.T) {
		prog, d, opts := bindTables(MustParse(pathSrc+`extra(X) -> seen(X).`), append(edges, extra...), width, Options{})
		r := MustCompile(prog, opts)
		n := 0
		for _, err := range r.Stream(bg, nil, "path") {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n == 1 {
				if d.nexts > 2 {
					t.Errorf("first answer after %d chunk pulls, want at most 2 of %d", d.nexts, d.pulls(len(edges)))
				}
				if !slices.Equal(d.opened, []string{"edge"}) {
					t.Errorf("opened %v before the first answer, want only the first binding", d.opened)
				}
				if d.closes != 0 {
					t.Errorf("%d cursors closed mid-stream", d.closes)
				}
				break
			}
		}
		if n != 1 {
			t.Fatalf("stream yielded %d facts, want a first one", n)
		}
		if len(d.opened) != 1 || d.closes != 1 {
			t.Errorf("early break: %d opened, %d closed; want the one open cursor released once", len(d.opened), d.closes)
		}
	})

	t.Run("to exhaustion reads each chunk once", func(t *testing.T) {
		short := edges[:40]
		prog, d, opts := bindTables(MustParse(pathSrc), short, width, Options{})
		s := newSession(t, prog, opts)
		if got, want := len(pull(t, s, "path")), 40*41/2; got != want {
			t.Errorf("streamed %d paths, want %d", got, want)
		}
		if d.nexts != d.pulls(len(short)) || len(d.opened) != 1 || d.closes != 1 {
			t.Errorf("%d pulls (want %d), %d opens, %d closes", d.nexts, d.pulls(len(short)), len(d.opened), d.closes)
		}
		if !s.Quiesced() {
			t.Error("exhausted stream left the session unquiesced")
		}
	})

	t.Run("negation reads everything first", func(t *testing.T) {
		// Every blocked row arrives after every edge row: fed lazily, the
		// first pull would see no blocked fact at all.
		var blocked []Fact
		for i := 0; i < len(edges); i += 3 {
			blocked = append(blocked, MakeFact("blocked", edges[i].Args[0]))
		}
		src := `edge(X,Y), not blocked(X) -> ok(X,Y). @output("ok").`
		prog, d, opts := bindTables(MustParse(src), append(slices.Clone(edges), blocked...), width, Options{})
		r := MustCompile(prog, opts)
		want := map[string]bool{}
		res, err := r.Query(bg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Output("ok") {
			want[f.String()] = true
		}
		if len(want) != len(edges)-len(blocked) {
			t.Fatalf("eager run: %d ok facts, want %d", len(want), len(edges)-len(blocked))
		}
		all := d.pulls(len(edges)) + d.pulls(len(blocked))
		d.nexts, d.opened, d.closes = 0, nil, 0
		n := 0
		for f, err := range r.Stream(bg, nil, "ok") {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n == 1 && (d.nexts != all || d.closes != 2) {
				t.Errorf("first answer after %d of %d chunk pulls, %d cursors closed; a negated program reads all input first",
					d.nexts, all, d.closes)
			}
			if !want[f.String()] {
				t.Fatalf("stream yielded %v, which the eager run does not derive", f)
			}
		}
		if n != len(want) {
			t.Errorf("stream yielded %d ok facts, eager run %d", n, len(want))
		}
	})
}

// TestLazyImportedNullIsNotAMintedOne: a "_:n1" cell that arrives in a
// later chunk, after an existential rule has minted its own _:n1 from an
// earlier one, is a different null.
func TestLazyImportedNullIsNotAMintedOne(t *testing.T) {
	const n, at = 1500, 1400 // row 1400 sits in the second ChunkSize chunk
	rows := make([][]term.Value, n)
	for i := range rows {
		rows[i] = []term.Value{Int(int64(i)), Str(fmt.Sprintf("x%d", i))}
	}
	rows[at][0] = term.Null(1)
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		mem := source.NewMem()
		mem.Store("p", rows)
		opts := (&Options{Engine: engine}).RegisterDriver("privmem", mem)
		s := newSession(t, MustParse(`
			p(A,X) -> q(Z,X).
			@output("q").
			@bind("p","privmem","p").
		`), opts)
		minted := map[term.Value]bool{}
		for f, err := range s.Facts(context.Background(), "q") {
			if err != nil {
				t.Fatal(err)
			}
			minted[f.Args[0]] = true
		}
		if len(minted) != n {
			t.Fatalf("engine %v: %d distinct minted nulls, want %d", engine, len(minted), n)
		}
		var imported []term.Value
		for _, f := range s.Output("p") {
			if f.Args[0].IsNull() {
				imported = append(imported, f.Args[0])
			}
		}
		if len(imported) != 1 {
			t.Fatalf("engine %v: imported nulls %v, want one", engine, imported)
		}
		if minted[imported[0]] {
			t.Errorf("engine %v: imported null %v is conflated with a null the run minted", engine, imported[0])
		}
		if rows[at][0] != term.Null(1) {
			t.Errorf("engine %v: the import wrote into the driver's rows: %v", engine, rows[at])
		}
	}
}

// TestLoadAfterRunImportedNull: a labelled null loaded into a session that
// has already minted the same id names a different null — the loaded fact
// must not join with the minted one — and the same label loaded twice
// stays one null.
func TestLoadAfterRunImportedNull(t *testing.T) {
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		s := newSession(t, MustParse(`
			company(X) -> keyPerson(P,X).
			keyPerson(P,X), owner(P,Y) -> linked(X,Y).
			owner(P,X), owner(P,Y), X != Y -> same(X,Y).
			@output("linked"). @output("same").
		`), &Options{Engine: engine})
		s.Load(MakeFact("company", Str("a")))
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		kp := s.Output("keyPerson")
		if len(kp) != 1 || kp[0].Args[0] != term.Null(1) {
			t.Fatalf("engine %v: keyPerson = %v, want one fact over the minted _:n1", engine, kp)
		}
		s.Load(MakeFact("owner", term.Null(1), Str("b")))
		s.Load(MakeFact("owner", term.Null(1), Str("c")))
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got := s.Output("linked"); len(got) != 0 {
			t.Errorf("engine %v: loaded _:n1 conflated with the minted _:n1: %v", engine, got)
		}
		if got := s.Output("same"); len(got) != 2 {
			t.Errorf("engine %v: one label imported as two nulls: same = %v, want (b,c) and (c,b)", engine, got)
		}
	}
}

// isoCanon renders facts with every labelled null replaced by a colour
// computed from how it occurs — in which facts, at which positions, beside
// which other nulls (colour refinement, iterated until the partition stops
// splitting) — and sorts the lines, so two fact sets that differ only by a
// renaming of nulls render identically.
func isoCanon(facts []Fact) string {
	color := map[term.Value]string{}
	render := func(f Fact, self term.Value) string {
		var sb strings.Builder
		sb.WriteString(f.Pred)
		for _, v := range f.Args {
			sb.WriteByte('|')
			switch {
			case !v.IsNull():
				sb.WriteString(v.String())
			case v == self:
				sb.WriteString("_:self")
			default:
				sb.WriteString("_:" + color[v])
			}
		}
		return sb.String()
	}
	sortedLines := func(fs []Fact, self term.Value) string {
		lines := make([]string, len(fs))
		for i, f := range fs {
			lines[i] = render(f, self)
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	occurs := map[term.Value][]Fact{}
	for _, f := range facts {
		for _, v := range f.Args {
			if v.IsNull() {
				occurs[v] = append(occurs[v], f)
			}
		}
	}
	for classes := 0; ; {
		next, distinct := make(map[term.Value]string, len(occurs)), map[string]bool{}
		for null, fs := range occurs {
			h := fnv.New64a()
			h.Write([]byte(sortedLines(fs, null)))
			next[null] = fmt.Sprintf("%x", h.Sum64())
			distinct[next[null]] = true
		}
		color = next
		if len(distinct) == classes {
			break
		}
		classes = len(distinct)
	}
	return sortedLines(facts, term.Value{})
}

// exampleProgram reads examples/programs/<name>.vada and the facts of its
// CSV files.
func exampleProgram(t *testing.T, name string) (string, []Fact) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "examples", "programs", name+".vada"))
	if err != nil {
		t.Fatal(err)
	}
	var facts []Fact
	csvs, _ := filepath.Glob(filepath.Join("..", "examples", "programs", "facts", name, "*.csv"))
	for _, csv := range csvs {
		fs, err := ReadCSV(strings.TrimSuffix(filepath.Base(csv), ".csv"), csv)
		if err != nil {
			t.Fatal(err)
		}
		facts = append(facts, fs...)
	}
	return string(src), facts
}

// TestLazyEqualsEager is the re-chunking metamorphic test: however the
// input is cut into chunks, pulling a predicate to exhaustion through Facts
// completes it and every predicate of its relevance cone as Query completes
// them from the same facts staged up front, and a Run on the same session
// then completes every other predicate too — ground predicates byte for
// byte in Output's canonical order, null-carrying ones up to a renaming of
// nulls — on both engines.
func TestLazyEqualsEager(t *testing.T) {
	type scenario struct {
		name, src string
		facts     []Fact
	}
	var scenarios []scenario
	progs, err := filepath.Glob(filepath.Join("..", "examples", "programs", "*.vada"))
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, path := range progs {
		name := strings.TrimSuffix(filepath.Base(path), ".vada")
		src, facts := exampleProgram(t, name)
		scenarios = append(scenarios, scenario{name, src, facts})
	}
	rng := rand.New(rand.NewSource(23))
	var edges []Fact
	for i := 0; i < 60; i++ {
		edges = append(edges, MakeFact("edge", Int(int64(rng.Intn(25))), Int(int64(rng.Intn(25)))))
	}
	scenarios = append(scenarios,
		scenario{"bound-recursive", pathSrc, edges},
		scenario{"monotonic-aggregate", controlSrc, graphs.ScaleFree(60, graphs.PaperParams(), 3).OwnFacts()},
		// The imported _:n1 arrives after rules have minted nulls of their own.
		scenario{"existential-imported-null", `
			company(X) -> keyPerson(P,X).
			founder(P,X) -> keyPerson(P,X).
			control(X,Y), keyPerson(P,X) -> keyPerson(P,Y).
			@output("keyPerson").`,
			[]Fact{
				MakeFact("company", Str("a")), MakeFact("company", Str("b")),
				MakeFact("control", Str("a"), Str("c")), MakeFact("control", Str("c"), Str("d")),
				MakeFact("founder", term.Null(1), Str("a")), MakeFact("founder", term.Null(1), Str("d")),
			}},
	)
	for _, sc := range scenarios {
		for _, engine := range []Engine{EnginePipeline, EngineChase} {
			t.Run(fmt.Sprintf("%s/%v", sc.name, engine), func(t *testing.T) {
				prog := MustParse(sc.src)
				plain := *prog
				plain.Bindings = nil // the facts are handed over; nothing is read or written on disk
				res, err := MustCompile(&plain, &Options{Engine: engine}).Query(context.Background(), sc.facts)
				if err != nil {
					t.Fatal(err)
				}
				preds := []string{}
				for pred := range prog.IDBPreds() {
					preds = append(preds, pred)
				}
				sort.Strings(preds)
				if len(preds) == 0 || len(res.Output(preds[len(preds)-1])) == 0 {
					t.Fatal("scenario derives nothing (vacuous comparison)")
				}
				pulled := preds[len(preds)-1]
				// The pull completes the pulled predicate and its cone: the
				// heads of the rules analysis.Cone keeps.
				cone := []string{pulled}
				for _, i := range analysis.Cone(prog, nil, pulled) {
					for _, h := range prog.Rules[i].Heads {
						if !slices.Contains(cone, h.Pred) {
							cone = append(cone, h.Pred)
						}
					}
				}
				sort.Strings(cone)
				compare := func(chunk int, s *Session, preds []string) {
					t.Helper()
					for _, pred := range preds {
						want, got := res.Output(pred), s.Output(pred)
						if slices.ContainsFunc(want, func(f Fact) bool { return !f.IsGround() }) {
							if isoCanon(got) != isoCanon(want) {
								t.Errorf("chunk %d: %s differs beyond a renaming of nulls\n got: %v\nwant: %v", chunk, pred, got, want)
							}
						} else if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("chunk %d: %s differs\n got: %v\nwant: %v", chunk, pred, got, want)
						}
					}
				}
				for _, chunk := range []int{1, 7, source.ChunkSize, 0} {
					bound, d, opts := bindTables(prog, sc.facts, chunk, Options{Engine: engine})
					s := newSession(t, bound, opts)
					pull(t, s, pulled)
					if len(d.opened) != len(d.tables) || d.closes != len(d.tables) {
						t.Errorf("chunk %d: %d of %d sources opened, %d closed", chunk, len(d.opened), len(d.tables), d.closes)
					}
					compare(chunk, s, cone)
					if err := s.RunContext(context.Background()); err != nil {
						t.Fatalf("chunk %d: run after the pull: %v", chunk, err)
					}
					compare(chunk, s, preds)
				}
			})
		}
	}
}

// The stream programs of TestStreamContract whose answer an EGD rewrites:
// s(_:n1) is derived before the EGD equates _:n1 with "c", at once or,
// with r routed through two copy rules, a round later.
const (
	egdSrc = `
		a(X) -> q(X,Z).
		q(X,Y), r(X,W) -> Y = W.
		q(X,Y) -> s(Y).
		a(1). r(1,"c").
		@output("s").`
	egdLateSrc = `
		a(X) -> q(X,Z).
		r(X,W) -> r1(X,W).
		r1(X,W) -> r2(X,W).
		q(X,Y), r2(X,W) -> Y = W.
		q(X,Y) -> s(Y).
		a(1). r(1,"c").
		@output("s").`
)

// streamDeadline bounds each stream of TestStreamContract's runs to
// exhaustion: the slowest first answer there takes milliseconds.
const streamDeadline = 30 * time.Second

// synthC is the iWarded synthC program over 40 facts per relation, seed 1:
// the iwarded workloads' program at their tiny size.
func synthC(t *testing.T) (string, []Fact) {
	t.Helper()
	cfg, _ := iwarded.Scenario("synthC")
	cfg.FactsPerRel, cfg.Seed = 40, 1
	g, err := iwarded.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Source, g.Facts
}

// dbText renders c's database row by row in storage order, retracted rows
// marked, with the admitted count: two runs render alike only when they
// admitted the same facts in the same order.
func dbText(c *admit.Core) string {
	var sb strings.Builder
	for _, pred := range c.DB().Predicates() {
		rel := c.DB().Lookup(pred)
		for i := 0; i < rel.Len(); i++ {
			m := rel.At(i)
			fmt.Fprintf(&sb, "%v %v\n", m.Retracted, m.Fact)
		}
	}
	fmt.Fprintf(&sb, "derivations=%d\n", c.Derivations())
	return sb.String()
}

// sameFacts reports whether got and want hold the same facts, ignoring
// order, and up to a renaming of nulls when want carries one.
func sameFacts(got, want []Fact) bool {
	if slices.ContainsFunc(want, func(f Fact) bool { return !f.IsGround() }) {
		return isoCanon(got) == isoCanon(want)
	}
	g, w := make([]string, len(got)), make([]string, len(want))
	for i, f := range got {
		g[i] = f.String()
	}
	for i, f := range want {
		w[i] = f.String()
	}
	slices.Sort(g)
	slices.Sort(w)
	return slices.Equal(g, w)
}

// TestStreamContract pins what a stream promises on both engines: on a
// consistent KB every yielded fact is in the final Output (aggregate
// intermediates and @post aside), a stream to exhaustion yields exactly
// Query's answer and ends in ErrInconsistent on an inconsistent KB, and a
// stream cut short — by a break or by the budget — leaves a session whose
// Run completes it as a fresh Query would. On the chase the cut session's
// Run continues the same delta batches in the same order, so its database
// equals Query's row for row; a program with an EGD or an in-place
// aggregate takes its whole fixpoint before the first yield.
func TestStreamContract(t *testing.T) {
	bg := context.Background()
	engines := []Engine{EnginePipeline, EngineChase}
	synthSrc, synthFacts := synthC(t)
	supplySrc, supplyFacts := exampleProgram(t, "supplychain")
	agg := graphs.ScaleFree(60, graphs.PaperParams(), 3).OwnFacts()
	query := func(t *testing.T, src string, facts []Fact, opts *Options) (*Reasoner, *Result) {
		t.Helper()
		r := MustCompile(MustParse(src), opts)
		res, err := r.Query(bg, facts)
		if err != nil {
			t.Fatal(err)
		}
		return r, res
	}
	// completes checks that s, run after a cut stream, holds ref's answer:
	// the same outputs and, on the chase, the same database row for row.
	completes := func(t *testing.T, engine Engine, src string, s *Session, ref *Result) {
		t.Helper()
		for pred := range MustParse(src).IDBPreds() {
			if got, want := s.Output(pred), ref.Output(pred); !sameFacts(got, want) {
				t.Errorf("%s: %d facts after the cut and a run, Query %d", pred, len(got), len(want))
			}
		}
		if engine == EngineChase && dbText(s.core) != dbText(ref.core) {
			t.Errorf("database after the cut and a run differs from Query's (%d vs %d derivations)", s.Derivations(), ref.Derivations())
		}
	}

	for _, engine := range engines {
		t.Run(fmt.Sprintf("break then run/%v", engine), func(t *testing.T) {
			r, ref := query(t, synthSrc, synthFacts, &Options{Engine: engine})
			s := r.NewSession()
			s.Load(synthFacts...)
			n := 0
			for _, err := range s.Facts(bg, "wc9") {
				if err != nil {
					t.Fatal(err)
				}
				if n++; n == 3 {
					break
				}
			}
			if n != 3 {
				t.Fatalf("stream yielded %d facts before the break, want 3", n)
			}
			if engine == EngineChase && s.Derivations() >= ref.Derivations() {
				t.Errorf("first wc9 facts after %d admissions, the whole fixpoint is %d", s.Derivations(), ref.Derivations())
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if s.Derivations() != ref.Derivations() {
				t.Errorf("derivations %d after the break and a run, Query %d", s.Derivations(), ref.Derivations())
			}
			completes(t, engine, synthSrc, s, ref)
		})
	}

	// Every IDB predicate of each program is streamed to exhaustion, all of
	// them from one session, one fact of each in turn, so every pull starts
	// where the others left the engine. Each stream has a deadline: on
	// synthC's pipeline a first pull of a gm or w0 predicate once walked
	// every path among w0's mutually recursive producers and did not answer
	// in seconds, and a return of that fails here instead of hanging.
	exhaust := []struct {
		name, src string
		facts     []Fact
	}{
		{"synthC", synthSrc, synthFacts},
		{"supplychain", supplySrc, supplyFacts},
		{"path", pathSrc, chainFacts("n", 12)},
		{"egd", egdSrc, nil},
		{"egd-late", egdLateSrc, nil},
	}
	for _, sc := range exhaust {
		for _, engine := range engines {
			t.Run(fmt.Sprintf("to exhaustion/%s/%v", sc.name, engine), func(t *testing.T) {
				r, ref := query(t, sc.src, sc.facts, &Options{Engine: engine})
				preds := slices.Sorted(maps.Keys(MustParse(sc.src).IDBPreds()))
				s := r.NewSession()
				s.Load(sc.facts...)
				pulls := make([]func() (Fact, error, bool), len(preds))
				for i, pred := range preds {
					ctx, cancel := context.WithTimeout(bg, streamDeadline)
					defer cancel()
					next, stop := iter.Pull2(s.Facts(ctx, pred))
					defer stop()
					pulls[i] = next
				}
				got := make([][]Fact, len(preds))
				for open := len(preds); open > 0; {
					for i, pred := range preds {
						if pulls[i] == nil {
							continue
						}
						f, err, ok := pulls[i]()
						if err != nil {
							t.Fatalf("%s: %v", pred, err)
						}
						if !ok {
							pulls[i] = nil
							open--
							continue
						}
						got[i] = append(got[i], f)
					}
				}
				streamed := 0
				for i, pred := range preds {
					if want := ref.Output(pred); !sameFacts(got[i], want) {
						t.Errorf("%s: streamed %v, Query %v", pred, got[i], want)
					}
					streamed += len(got[i])
				}
				if streamed == 0 {
					t.Error("no predicate streamed a fact: the row compares empty with empty")
				}
			})
		}
	}

	t.Run("drain first on the chase", func(t *testing.T) {
		for _, sc := range []struct {
			name, src, pred string
			facts           []Fact
		}{
			{"egd", egdLateSrc, "s", nil},
			{"aggregate", controlSrc, "control", agg},
		} {
			r, ref := query(t, sc.src, sc.facts, &Options{Engine: EngineChase})
			s := r.NewSession()
			s.Load(sc.facts...)
			for _, err := range s.Facts(bg, sc.pred) {
				if err != nil {
					t.Fatal(err)
				}
				break
			}
			if s.Derivations() != ref.Derivations() {
				t.Errorf("%s: first yield after %d admissions, want the fixpoint's %d", sc.name, s.Derivations(), ref.Derivations())
			}
		}
	})

	for _, engine := range engines {
		t.Run(fmt.Sprintf("inconsistent/%v", engine), func(t *testing.T) {
			r := MustCompile(MustParse(`a(1). a(X) -> b(X). a(X) -> #fail.`), &Options{Engine: engine})
			for _, pred := range []string{"b", "nosuch"} {
				var last error
				for _, err := range r.Stream(bg, nil, pred) {
					last = err
				}
				if !errors.Is(last, ErrInconsistent) {
					t.Errorf("Stream(%q) ends in %v, want ErrInconsistent", pred, last)
				}
			}
		})
	}

	for _, engine := range engines {
		t.Run(fmt.Sprintf("budget cut mid-stream/%v", engine), func(t *testing.T) {
			_, ref := query(t, synthSrc, synthFacts, &Options{Engine: engine})
			// The budget is what the first yield costs: the stream yields,
			// then runs out.
			first := newSession(t, MustParse(synthSrc), &Options{Engine: engine})
			first.Load(synthFacts...)
			for _, err := range first.Facts(bg, "wc9") {
				if err != nil {
					t.Fatal(err)
				}
				break
			}
			s := newSession(t, MustParse(synthSrc), &Options{Engine: engine, MaxDerivations: first.Derivations()})
			s.Load(synthFacts...)
			n := 0
			var pr *PartialResult
			for _, err := range s.Facts(bg, "wc9") {
				if err != nil {
					if !errors.As(err, &pr) || !errors.Is(err, ErrBudget) {
						t.Fatalf("stream ends in %v, want a budget PartialResult", err)
					}
					break
				}
				n++
			}
			if pr == nil || n == 0 {
				t.Fatalf("stream yielded %d facts and ended in %v, want yields and then a PartialResult", n, pr)
			}
			s.SetMaxDerivations(0)
			if err := pr.Resume(bg); err != nil {
				t.Fatal(err)
			}
			completes(t, engine, synthSrc, s, ref)
		})
	}
}
