package source

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/term"
)

// CSV is the delimited-text record manager behind the "csv" (comma) and
// "tsv" (tab) drivers. It is a Source, a Sink and a PushdownSource:
// @qbind selections are evaluated during the scan (filtered rows never
// surface to the engine) and @mapping projections resolve against a
// header row, which the file must carry iff the binding is mapped.
type CSV struct {
	// Comma is the field delimiter (',' for csv, '\t' for tsv).
	Comma rune
}

// Pushdown reports that the driver applies both selections and
// projections natively.
func (CSV) Pushdown(Binding) Pushdown { return Pushdown{Query: true, Columns: true} }

// Open starts a streaming scan of the file at b.Target. With an
// @mapping projection the first record is read as a header naming the
// file's columns; without one every record maps positionally.
func (d CSV) Open(_ context.Context, b Binding) (RecordCursor, error) {
	f, err := os.Open(b.Target)
	if err != nil {
		return nil, Classify(fmt.Errorf("source: open %s: %w", b.Target, err))
	}
	r := csv.NewReader(f)
	if d.Comma != 0 {
		r.Comma = d.Comma
	}
	r.FieldsPerRecord = -1
	r.ReuseRecord = true
	proj, err := headerProjection(r, b)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &csvCursor{f: f, r: r, target: b.Target, q: b.Query, proj: proj}, nil
}

// headerProjection consumes the header row and resolves the binding's
// mapped columns to field indexes; it returns nil when the binding has
// no mapping (positional rows, no header).
func headerProjection(r *csv.Reader, b Binding) ([]int, error) {
	if len(b.Columns) == 0 {
		return nil, nil
	}
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("source: %s: reading header for @mapping: %w", b.Target, err)
	}
	return resolveColumns(header, b.Columns, b.Target)
}

type csvCursor struct {
	f      *os.File
	r      *csv.Reader
	target string
	q      *Query
	proj   []int
	done   bool
}

func (c *csvCursor) Next(ctx context.Context) ([][]term.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // nothing consumed: the cursor stays resumable
	}
	if c.done {
		return nil, nil
	}
	out := make([][]term.Value, 0, ChunkSize)
	var rows chunkRows
	for len(out) < ChunkSize {
		rec, err := c.r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				c.done = true
				break
			}
			return nil, Classify(fmt.Errorf("source: read %s: %w", c.target, err))
		}
		row, err := projectRecord(rec, c.proj, c.target, &rows)
		if err != nil {
			return nil, err
		}
		if c.q != nil && !c.q.Matches(row) {
			rows.drop()
			continue
		}
		out = append(out, row)
	}
	return out, nil
}

func projectRecord(rec []string, proj []int, target string, rows *chunkRows) ([]term.Value, error) {
	if proj == nil {
		row := rows.next(len(rec))
		for i, cell := range rec {
			row[i] = ParseCell(cell)
		}
		return row, nil
	}
	row := rows.next(len(proj))
	for j, i := range proj {
		if i >= len(rec) {
			return nil, fmt.Errorf("source: %s: record %v misses mapped column %d", target, rec, i+1)
		}
		row[j] = ParseCell(rec[i])
	}
	return row, nil
}

func (c *csvCursor) Close() error { return c.f.Close() }

// WriteAll persists rows to the file at b.Target, one record per row.
// Cells are encoded with EncodeCell, so a write→read round trip is the
// identity on every value kind. A mapped binding writes its @mapping
// columns as the header row.
func (d CSV) WriteAll(_ context.Context, b Binding, rows [][]term.Value) error {
	f, err := os.Create(b.Target)
	if err != nil {
		return Classify(fmt.Errorf("source: create %s: %w", b.Target, err))
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if d.Comma != 0 {
		w.Comma = d.Comma
	}
	if len(b.Columns) > 0 {
		if err := w.Write(b.Columns); err != nil {
			return Classify(fmt.Errorf("source: write %s: %w", b.Target, err))
		}
	}
	rec := make([]string, 0, 8)
	for _, row := range rows {
		rec = rec[:0]
		for _, v := range row {
			rec = append(rec, EncodeCell(v))
		}
		if err := w.Write(rec); err != nil {
			return Classify(fmt.Errorf("source: write %s: %w", b.Target, err))
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return Classify(fmt.Errorf("source: write %s: %w", b.Target, err))
	}
	return nil
}
