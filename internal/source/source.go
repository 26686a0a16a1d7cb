// Package source is the record-manager layer of the reproduction (paper
// Sec. 6): it binds predicates to heterogeneous external sources and
// sinks through a pluggable driver registry, streams typed rows into the
// engines chunk by chunk, and pushes @qbind constant selections and
// @mapping column projections into the driver when it supports them
// (post-filtering otherwise).
//
// A Driver is registered once under a name (Register) and resolved at
// compile time from @bind/@qbind annotations; built-in drivers are "csv",
// "tsv", "jsonl" and "mem". Drivers implement Source to serve input
// bindings, Sink to serve output bindings, and PushdownSource to take
// over selection/projection work.
package source

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/term"
)

// Injection sites guarding the two seams every driver funnels through:
// opening a scan and pulling a chunk. Both fire as transient errors, so
// the chaos suite exercises the binding layer's retry path for every
// driver without per-driver hooks.
var (
	siteOpen = fault.NewSite("source.open")
	siteRead = fault.NewSite("source.read")
)

// ChunkSize is how many rows a built-in driver yields per RecordCursor
// pull. The binding layer checks for cancellation between chunks, so the
// constant also bounds cancellation latency during loads.
const ChunkSize = 1024

// chunkRows hands out the rows of one chunk from a single ChunkSize × width
// backing block instead of one allocation per record, with full slice
// expressions so appending to a row can never write into its neighbour.
// The zero value is ready; use one per chunk (the chunk retains the block).
type chunkRows struct {
	block     []term.Value
	width     int // row width the block was cut for: the chunk's first row's
	off, last int // values handed out so far, and by the latest next call
}

// next returns a row of n values for the caller to fill: the block's next
// slot, or a slice of its own when n differs from the chunk's width.
func (c *chunkRows) next(n int) []term.Value {
	if c.block == nil {
		c.width, c.block = n, make([]term.Value, ChunkSize*n)
	}
	if n != c.width || c.off+n > len(c.block) {
		c.last = 0
		return make([]term.Value, n)
	}
	c.last = n
	c.off += n
	return c.block[c.off-n : c.off : c.off]
}

// drop gives back the row of the latest next call — one the pushdown
// selection filtered out — so the following row reuses its slot.
func (c *chunkRows) drop() {
	c.off -= c.last
	c.last = 0
}

// Binding describes one resolved predicate binding: which external
// target to scan (or write), and the selection/projection the consumer
// wants applied.
type Binding struct {
	// Pred is the bound predicate (facts produced by the source carry it).
	Pred string
	// Driver is the registry name the binding resolved through
	// (diagnostics only; the driver itself is passed alongside).
	Driver string
	// Target locates the data within the driver: a file path for the
	// file-backed drivers, a table name for the mem driver.
	Target string
	// Arity is the declared width of the bound predicate when the
	// program determines one, 0 otherwise. It feeds compile-time
	// validation (a Query may not reference columns beyond it); row
	// widths themselves are not enforced against it — rows pass through
	// as scanned, preserving the historical permissive CSV behavior.
	Arity int
	// Columns is the @mapping projection: named source columns selected,
	// in order, onto the predicate's positions. Empty means positional
	// pass-through. Projection is inherently driver-side (column names
	// only exist at the source), so drivers must support it via
	// PushdownSource; Open rejects the binding otherwise.
	Columns []string
	// Query is the parsed @qbind selection over predicate positions
	// (post-projection), nil when absent. Drivers that push it down
	// evaluate it during the scan; Open post-filters for the rest.
	Query *Query
}

// RecordCursor streams typed rows in chunks. Next returns the next chunk
// (at most ChunkSize rows for the built-in drivers) and an empty chunk
// once the source is exhausted. A cursor whose Next returned a context
// error has consumed nothing for that call and may be resumed with a
// live context.
type RecordCursor interface {
	Next(ctx context.Context) ([][]term.Value, error)
	Close() error
}

// Source is the input half of a record manager: Open begins a streaming
// scan of the binding's target.
type Source interface {
	Open(ctx context.Context, b Binding) (RecordCursor, error)
}

// Sink is the output half of a record manager: WriteAll persists the
// rows of an output predicate to the binding's target.
type Sink interface {
	WriteAll(ctx context.Context, b Binding, rows [][]term.Value) error
}

// Pushdown reports which parts of a Binding a driver evaluates natively.
type Pushdown struct {
	// Query: the driver applies b.Query during the scan, so filtered rows
	// never surface to the engine.
	Query bool
	// Columns: the driver applies the @mapping projection (it can resolve
	// the binding's column names).
	Columns bool
}

// PushdownSource is implemented by sources that take over selection
// and/or projection work; sources without it get selections applied as a
// post-filter by Open, and cannot serve @mapping bindings.
type PushdownSource interface {
	Source
	Pushdown(b Binding) Pushdown
}

// Driver is a registered record manager: a Source, a Sink, or both. The
// binding layer type-asserts per direction; compile-time validation
// reports drivers lacking the direction a binding needs.
type Driver interface{}

// Pushes returns what d applies natively for b (the zero Pushdown when d
// does not implement PushdownSource).
func Pushes(d Driver, b Binding) Pushdown {
	if ps, ok := d.(PushdownSource); ok {
		return ps.Pushdown(b)
	}
	return Pushdown{}
}

// Open begins a streaming scan of b through d, pushing the binding's
// query into the driver when it supports it and wrapping the cursor in a
// post-filter otherwise. Bindings with an @mapping projection require a
// driver that pushes columns (names only exist at the source).
func Open(ctx context.Context, d Driver, b Binding) (RecordCursor, error) {
	src, ok := d.(Source)
	if !ok {
		return nil, fmt.Errorf("source: driver %q for %s cannot read (no Source)", b.Driver, b.Pred)
	}
	push := Pushes(d, b)
	if len(b.Columns) > 0 && !push.Columns {
		return nil, fmt.Errorf("source: driver %q for %s does not support @mapping", b.Driver, b.Pred)
	}
	if err := siteOpen.Check(); err != nil {
		return nil, Classify(fmt.Errorf("source: open %s via %q: %w", b.Pred, b.Driver, err))
	}
	inner := b
	if b.Query != nil && !push.Query {
		inner.Query = nil
	}
	cur, err := src.Open(ctx, inner)
	if err != nil {
		return nil, Classify(err)
	}
	if b.Query != nil && !push.Query {
		cur = &filteredCursor{cur: cur, q: b.Query}
	}
	return &checkedCursor{cur: cur}, nil
}

// checkedCursor guards every chunk pull with the source.read injection
// site and classifies driver errors as transient where they qualify. The
// site check runs before the pull, so an injected read failure consumes
// nothing — like a context error, the cursor stays positioned and a
// retry resumes exactly where the fault struck.
type checkedCursor struct {
	cur RecordCursor
}

func (c *checkedCursor) Next(ctx context.Context) ([][]term.Value, error) {
	if err := siteRead.Check(); err != nil {
		return nil, Classify(fmt.Errorf("source: read: %w", err))
	}
	chunk, err := c.cur.Next(ctx)
	if err != nil {
		return nil, Classify(err)
	}
	return chunk, nil
}

func (c *checkedCursor) Close() error { return c.cur.Close() }

// filteredCursor applies a Query the driver did not push down. It never
// returns a non-final empty chunk: empty post-filter results pull again
// until a row survives or the underlying cursor is exhausted.
type filteredCursor struct {
	cur RecordCursor
	q   *Query
}

func (f *filteredCursor) Next(ctx context.Context) ([][]term.Value, error) {
	for {
		chunk, err := f.cur.Next(ctx)
		if err != nil || len(chunk) == 0 {
			return nil, err
		}
		// Survivors go into a fresh slice: the chunk may alias storage the
		// driver still owns, so compacting it in place could corrupt a
		// concurrent or later scan.
		var kept [][]term.Value
		for _, row := range chunk {
			if f.q.Matches(row) {
				kept = append(kept, row)
			}
		}
		if len(kept) > 0 {
			return kept, nil
		}
	}
}

func (f *filteredCursor) Close() error { return f.cur.Close() }

// resolveColumns maps a binding's @mapping column names onto indexes in
// available, the driver's column inventory (a CSV header, a mem table's
// stored names); where names the source for the error message.
func resolveColumns(available, wanted []string, where string) ([]int, error) {
	idx := make(map[string]int, len(available))
	for i, name := range available {
		idx[name] = i
	}
	proj := make([]int, len(wanted))
	for j, col := range wanted {
		i, ok := idx[col]
		if !ok {
			return nil, fmt.Errorf("source: %s: @mapping column %q not among %v", where, col, available)
		}
		proj[j] = i
	}
	return proj, nil
}

// ReadAll drains a binding through d into a single row slice (tests,
// small inputs, the compatibility CSV helpers). Streaming consumers
// should drive the cursor chunk by chunk instead.
func ReadAll(ctx context.Context, d Driver, b Binding) ([][]term.Value, error) {
	cur, err := Open(ctx, d, b)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var rows [][]term.Value
	for {
		chunk, err := cur.Next(ctx)
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			return rows, nil
		}
		rows = append(rows, chunk...)
	}
}
