package vadalog

import (
	"context"
	"fmt"
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

// stage streams the @bind'ed input sources into the engine — program
// facts first, then each binding's cursor chunk by chunk, then (by the
// caller) the staged facts, so the admission order matches the historical
// materialize-all path exactly. Cancellation is honored between chunks;
// a cancelled stage keeps its open cursor and resumes where it stopped
// on the next call, so no rows are lost or re-read. Once every input is
// drained the stage is done for the session's lifetime, however many
// times Run or Stream are invoked afterwards.
//
// Transient source failures (IsTransient) are retried in place with
// capped exponential backoff (Options.Retry): a failed chunk pull
// consumed nothing, so the retry — and, should the retries run out, the
// next stage call — resumes at the exact row the fault struck.
func (s *Session) stage(ctx context.Context) error {
	if s.loaded {
		return nil
	}
	s.loadProgramFacts()
	for ; s.bindIdx < len(s.binds); s.bindIdx++ {
		bio := &s.binds[s.bindIdx]
		if bio.out {
			continue
		}
		if s.cur == nil {
			err := s.retryTransient(ctx, func() error {
				cur, err := source.Open(ctx, bio.drv, bio.b)
				if err == nil {
					s.cur = cur
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		for {
			chunk := s.chunk
			if chunk == nil {
				err := s.retryTransient(ctx, func() error {
					var err error
					chunk, err = s.cur.Next(ctx)
					return err
				})
				if err != nil {
					if ctx.Err() != nil || IsTransient(err) {
						// Cancellation, or a transient fault that outlived its
						// retries: the failed pull consumed nothing, so the
						// cursor stays open and the next call resumes here.
						return err
					}
					s.cur.Close()
					s.cur = nil
					return err
				}
				if len(chunk) == 0 {
					break
				}
			}
			// The cursor has moved past the pulled chunk, so the chunk is
			// held on the session until the engine admits it: a failed or
			// interrupted load resumes by re-admitting it (duplicates are
			// skipped), losing and re-reading nothing.
			s.chunk = chunk
			if err := s.loadRows(ctx, bio.b.Pred, chunk); err != nil {
				return err // chunk and cursor kept: the load resumes here
			}
			s.chunk = nil
		}
		s.cur.Close()
		s.cur = nil
	}
	s.loaded = true
	return nil
}

// loadProgramFacts admits the program's inline facts ahead of the bound
// inputs, once per session (the engines skip duplicates, but the guard
// keeps the work one-shot).
func (s *Session) loadProgramFacts() {
	if s.progLoaded {
		return
	}
	s.progLoaded = true
	s.eng.LoadProgramFacts()
}

// loadRows feeds one cursor chunk into the engine as rows of pred, then
// reports any pending cancellation (the chunk itself is always admitted;
// see Session.stage). Labelled nulls imported from the source ("_:nK"
// cells) reserve their ids in the session's null factory first, so they
// can never collide with nulls the run mints afterwards.
func (s *Session) loadRows(ctx context.Context, pred string, rows [][]term.Value) error {
	for _, row := range rows {
		for _, v := range row {
			if v.IsNull() {
				s.eng.DB().Nulls.Reserve(v.NullID())
			}
		}
	}
	return s.eng.LoadRows(ctx, pred, rows)
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
