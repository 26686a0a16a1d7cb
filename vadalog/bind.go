package vadalog

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/term"
)

// Driver is a pluggable record manager serving @bind/@qbind annotations:
// a source.Source (input bindings), a source.Sink (output bindings), or
// both. Register drivers process-wide with RegisterDriver or per-program
// through Options.RegisterDriver.
type Driver = source.Driver

// RecordCursor streams typed rows in chunks from a Driver.
type RecordCursor = source.RecordCursor

// SourceBinding is the resolved binding handed to a Driver's Open and
// WriteAll: target locator plus the selection/projection to apply.
type SourceBinding = source.Binding

// MemDriver is the in-memory record manager: the Go API stores rows (or
// a lazy row iterator) under a table name and @bind("p","mem","name")
// serves them to the engines.
type MemDriver = source.Mem

// RegisterDriver makes a record-manager driver available process-wide
// under name, like database/sql.Register; built-ins are "csv", "tsv",
// "jsonl" and "mem". It panics when name is already registered. For a
// driver visible to a single compiled program only, use
// Options.RegisterDriver instead.
func RegisterDriver(name string, d Driver) { source.Register(name, d) }

// DefaultMem returns the process-global in-memory driver registered as
// "mem": Store rows in it by name, then @bind them.
func DefaultMem() *MemDriver { return source.DefaultMem }

// boundIO is one compile-time-resolved binding: the driver instance plus
// the source.Binding its cursors and sinks receive.
type boundIO struct {
	drv source.Driver
	b   source.Binding
	out bool // output binding: written after the run, not loaded before
}

// resolveBindings validates the program's @bind/@qbind/@mapping
// annotations against the driver registry (overlaid with extra) and
// resolves them into ready-to-open bindings. All failures are
// compile-time errors positioned at the annotation: unknown drivers,
// @bind+@qbind mixes on one predicate, malformed or out-of-range
// queries, arity-mismatched mappings, and drivers lacking the direction
// or capability a binding needs.
func resolveBindings(prog *ast.Program, extra map[string]Driver) ([]boundIO, error) {
	if len(prog.Bindings) == 0 && len(prog.Mappings) == 0 {
		return nil, nil
	}
	arities, err := prog.Predicates()
	if err != nil {
		return nil, err
	}
	mapped := make(map[string]ast.Mapping, len(prog.Mappings))
	for _, m := range prog.Mappings {
		if _, dup := mapped[m.Pred]; dup {
			return nil, bindErr(m.Line, m.Col, "duplicate @mapping for predicate %q", m.Pred)
		}
		if ar, known := arities[m.Pred]; known && len(m.Columns) != ar {
			return nil, bindErr(m.Line, m.Col, "@mapping(%q): %d columns for arity-%d predicate",
				m.Pred, len(m.Columns), ar)
		}
		mapped[m.Pred] = m
	}
	kinds := make(map[string]string, len(prog.Bindings))
	binds := make([]boundIO, 0, len(prog.Bindings))
	for _, ab := range prog.Bindings {
		kind := "@bind"
		if ab.Query != "" {
			kind = "@qbind"
		}
		if prev, seen := kinds[ab.Pred]; seen && prev != kind {
			return nil, bindErr(ab.Line, ab.Col,
				"predicate %q has both @bind and @qbind; bind a predicate one way", ab.Pred)
		}
		kinds[ab.Pred] = kind
		drv, ok := extra[ab.Driver]
		if !ok {
			drv, ok = source.Lookup(ab.Driver)
		}
		if !ok {
			return nil, bindErr(ab.Line, ab.Col, "%s(%q): unknown driver %q (registered: %s)",
				kind, ab.Pred, ab.Driver, strings.Join(source.DriverNames(), ", "))
		}
		b := source.Binding{Pred: ab.Pred, Driver: ab.Driver, Target: ab.Target}
		if ar, known := arities[ab.Pred]; known {
			b.Arity = ar
		}
		if m, ok := mapped[ab.Pred]; ok {
			b.Columns = m.Columns
		}
		isOut := prog.Outputs[ab.Pred]
		if ab.Query != "" {
			if isOut {
				return nil, bindErr(ab.Line, ab.Col,
					"@qbind(%q): query bindings select from sources; %q is an @output sink", ab.Pred, ab.Pred)
			}
			q, err := source.ParseQuery(ab.Query)
			if err != nil {
				return nil, bindErr(ab.Line, ab.Col, "@qbind(%q): %v", ab.Pred, err)
			}
			if b.Arity > 0 && q.MaxCol() > b.Arity {
				return nil, bindErr(ab.Line, ab.Col,
					"@qbind(%q): query references column $%d of an arity-%d predicate",
					ab.Pred, q.MaxCol(), b.Arity)
			}
			b.Query = q
		}
		if isOut {
			if _, ok := drv.(source.Sink); !ok {
				return nil, bindErr(ab.Line, ab.Col,
					"%s(%q): driver %q cannot write @output predicates (no Sink)", kind, ab.Pred, ab.Driver)
			}
		} else {
			if _, ok := drv.(source.Source); !ok {
				return nil, bindErr(ab.Line, ab.Col,
					"%s(%q): driver %q cannot read input predicates (no Source)", kind, ab.Pred, ab.Driver)
			}
			if len(b.Columns) > 0 {
				if _, ok := drv.(source.PushdownSource); !ok {
					return nil, bindErr(ab.Line, ab.Col,
						"@mapping(%q): driver %q cannot project named columns", ab.Pred, ab.Driver)
				}
			}
		}
		binds = append(binds, boundIO{drv: drv, b: b, out: isOut})
	}
	return binds, nil
}

func bindErr(line, col int, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if line > 0 {
		return fmt.Errorf("vadalog: %d:%d: %s", line, col, msg)
	}
	return fmt.Errorf("vadalog: %s", msg)
}

// step is the session's admit.Feeder: it loads one more chunk of input
// into the engine and reports whether anything was left to load. Input
// comes in a fixed order — the program's inline facts, then each input
// binding's cursor in declaration order, one chunk per step, then the
// facts staged by Load, source.ChunkSize per step — so stepping to
// exhaustion admits exactly what materializing everything up front would,
// in the same order. The engine calls it on demand (a pipeline pull that
// came back dry, the chase before its fixpoint) and feed steps it to the
// end; bound inputs are read exactly once per session, however many times
// it is driven afterwards.
//
// Cancellation is honored between chunks, and a step that fails loses
// nothing: the open cursor and any chunk pulled but not yet admitted stay
// on the session, so the next step resumes at the same row. Transient
// source failures (IsTransient) are retried in place with capped
// exponential backoff (Options.Retry): a failed chunk pull consumed
// nothing, so the retry — and, should the retries run out, the next step —
// resumes at the exact row the fault struck. Errors come back as the
// engine or the driver reported them; the drive that surfaces one wraps
// it (wrapPartial), once.
func (s *Session) step(ctx context.Context) (more bool, err error) {
	s.ran = true
	if !s.progLoaded {
		// Once per session: the engines skip duplicates, but the guard
		// keeps the work one-shot.
		if err := s.core.LoadProgramFacts(); err != nil {
			return false, err
		}
		s.progLoaded = true
		return true, nil
	}
	for ; s.bindIdx < len(s.binds); s.bindIdx++ {
		bio := &s.binds[s.bindIdx]
		if bio.out {
			continue
		}
		if more, err := s.stepCursor(ctx, bio); more || err != nil {
			return more, err
		}
	}
	s.loaded = true
	if len(s.pending) == 0 {
		return false, nil
	}
	// On failure the staged chunk stays: loading skips duplicates, so the
	// resumed step admits only what was cut off.
	n := min(len(s.pending), source.ChunkSize)
	if err := s.core.LoadChunk(ctx, s.pending[:n]); err != nil {
		return false, err
	}
	if s.pending = s.pending[n:]; len(s.pending) == 0 {
		s.pending = nil // release the staged block
	}
	return true, nil
}

// stepCursor loads the next chunk of input binding bio, opening its cursor
// first when none is open. It reports false, with the cursor closed, once
// the source is exhausted.
func (s *Session) stepCursor(ctx context.Context, bio *boundIO) (more bool, err error) {
	if s.cur == nil {
		err := s.retryTransient(ctx, func() error {
			cur, err := source.Open(ctx, bio.drv, bio.b)
			if err == nil {
				s.cur = cur
			}
			return err
		})
		if err != nil {
			return false, err
		}
	}
	if s.chunk == nil {
		var chunk [][]term.Value
		err := s.retryTransient(ctx, func() error {
			var err error
			chunk, err = s.cur.Next(ctx)
			return err
		})
		if err != nil {
			if ctx.Err() == nil && !IsTransient(err) {
				s.cur.Close()
				s.cur = nil
			}
			// Otherwise cancellation, or a transient fault that outlived
			// its retries: the failed pull consumed nothing, so the cursor
			// stays open and the next step resumes here.
			return false, err
		}
		if len(chunk) == 0 {
			s.cur.Close()
			s.cur = nil
			return false, nil
		}
		// The cursor has moved past the pulled chunk, so the chunk is held
		// on the session until the engine admits it: a failed or
		// interrupted load resumes by re-admitting it (duplicates are
		// skipped), losing and re-reading nothing.
		s.chunk = importNulls(s.core.DB().Nulls, chunk)
	}
	if err := s.core.LoadRows(ctx, bio.b.Pred, s.chunk); err != nil {
		return false, err // chunk and cursor kept: the load resumes here
	}
	s.chunk = nil
	return true, nil
}

// importNulls passes the labelled nulls of rows ("_:nK" cells a source
// materialized) through nf.Import, so an imported null is never conflated
// with one the run has minted — rows can arrive after rules have fired —
// and equal labels stay one null. It returns rows itself when no null was
// renamed, and otherwise a copy sharing every untouched row: a chunk may
// alias storage its driver still owns.
func importNulls(nf *term.NullFactory, rows [][]term.Value) [][]term.Value {
	shared := true
	for i, row := range rows {
		if r, renamed := importRow(nf, row); renamed {
			if shared {
				rows, shared = slices.Clone(rows), false
			}
			rows[i] = r
		}
	}
	return rows
}

// importRow is importNulls for one row: args itself, or a renamed copy.
func importRow(nf *term.NullFactory, args []term.Value) (_ []term.Value, renamed bool) {
	for j, v := range args {
		if !v.IsNull() {
			continue
		}
		if w := nf.Import(v.NullID()); w != v {
			if !renamed {
				args, renamed = slices.Clone(args), true
			}
			args[j] = w
		}
	}
	return args, renamed
}

// Close releases the session's record-manager resources: the input
// cursor a cancelled load kept open for resumption. Sessions that ran
// to completion (or were never run) hold nothing, so Close is only
// needed when abandoning a session after a cancelled RunContext. A
// closed session can no longer resume its load.
func (s *Session) Close() error {
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur = nil
	return err
}

// writeBoundOutputs writes @bind'ed output predicates back through their
// record managers' sinks.
func (s *Session) writeBoundOutputs(ctx context.Context) error {
	for _, bio := range s.binds {
		if !bio.out {
			continue
		}
		sink := bio.drv.(source.Sink) // direction validated at compile time
		facts := s.Output(bio.b.Pred)
		rows := make([][]term.Value, len(facts))
		for i, f := range facts {
			rows[i] = f.Args
		}
		if err := sink.WriteAll(ctx, bio.b, rows); err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV reads path into facts of pred, one fact per record, through
// the csv record manager; cells are parsed as Vadalog literals (ints,
// floats, #t/#f, quoted strings, dates, sets). Kept as the materializing
// convenience API; @bind'ed programs stream instead.
func ReadCSV(pred, path string) ([]ast.Fact, error) {
	rows, err := source.ReadAll(context.Background(), source.CSV{Comma: ','},
		source.Binding{Pred: pred, Driver: "csv", Target: path})
	if err != nil {
		return nil, err
	}
	facts := make([]ast.Fact, len(rows))
	for i, row := range rows {
		facts[i] = ast.Fact{Pred: pred, Args: row}
	}
	return facts, nil
}

// WriteCSV writes facts to path, one record per fact, through the csv
// record manager. Cells round-trip: ReadCSV of the written file yields
// the same typed values (strings that look like other literals are
// quoted, integral floats keep ".0").
func WriteCSV(path string, facts []ast.Fact) error {
	rows := make([][]term.Value, len(facts))
	for i, f := range facts {
		rows[i] = f.Args
	}
	return source.CSV{Comma: ','}.WriteAll(context.Background(),
		source.Binding{Driver: "csv", Target: path}, rows)
}
