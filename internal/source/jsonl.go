package source

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/term"
)

// JSONL is the JSON-lines record manager behind the "jsonl" driver: one
// JSON value per line, either an array of cells (positional) or an
// object (requires an @mapping naming the keys to project). It is a
// Source, a Sink and a PushdownSource. JSON carries types natively, so
// strings never collide with numbers on a round trip; the kinds JSON
// cannot express (dates, labelled nulls, sets, non-finite floats) are
// type-tagged as {"$k": kind, "$v": payload} cells.
type JSONL struct{}

// Pushdown reports that the driver applies both selections and
// projections natively.
func (JSONL) Pushdown(Binding) Pushdown { return Pushdown{Query: true, Columns: true} }

// Open starts a streaming scan of the file at b.Target.
func (JSONL) Open(_ context.Context, b Binding) (RecordCursor, error) {
	f, err := os.Open(b.Target)
	if err != nil {
		return nil, Classify(fmt.Errorf("source: open %s: %w", b.Target, err))
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &jsonlCursor{f: f, sc: sc, target: b.Target, cols: b.Columns, q: b.Query}, nil
}

type jsonlCursor struct {
	f      *os.File
	sc     *bufio.Scanner
	target string
	cols   []string
	q      *Query
	line   int
	done   bool
}

func (c *jsonlCursor) Next(ctx context.Context) ([][]term.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // nothing consumed: the cursor stays resumable
	}
	if c.done {
		return nil, nil
	}
	out := make([][]term.Value, 0, ChunkSize)
	var rows chunkRows
	for len(out) < ChunkSize {
		if !c.sc.Scan() {
			if err := c.sc.Err(); err != nil {
				return nil, Classify(fmt.Errorf("source: read %s: %w", c.target, err))
			}
			c.done = true
			break
		}
		c.line++
		data := bytes.TrimSpace(c.sc.Bytes())
		if len(data) == 0 {
			continue
		}
		row, err := decodeJSONRow(data, c.cols, c.target, c.line, &rows)
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

func (c *jsonlCursor) Close() error { return c.f.Close() }

func decodeJSONRow(data []byte, cols []string, target string, line int, rows *chunkRows) ([]term.Value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("source: %s:%d: %w", target, line, err)
	}
	switch rec := raw.(type) {
	case []any:
		if len(cols) > 0 {
			return nil, fmt.Errorf("source: %s:%d: @mapping binds named keys, but the row is an array", target, line)
		}
		row := rows.next(len(rec))
		for i, cell := range rec {
			v, err := decodeJSONCell(cell)
			if err != nil {
				return nil, fmt.Errorf("source: %s:%d: cell %d: %w", target, line, i+1, err)
			}
			row[i] = v
		}
		return row, nil
	case map[string]any:
		if len(cols) == 0 {
			return nil, fmt.Errorf("source: %s:%d: object rows need an @mapping naming the keys to project", target, line)
		}
		row := rows.next(len(cols))
		for j, col := range cols {
			cell, ok := rec[col]
			if !ok {
				return nil, fmt.Errorf("source: %s:%d: object misses mapped key %q", target, line, col)
			}
			v, err := decodeJSONCell(cell)
			if err != nil {
				return nil, fmt.Errorf("source: %s:%d: key %q: %w", target, line, col, err)
			}
			row[j] = v
		}
		return row, nil
	default:
		return nil, fmt.Errorf("source: %s:%d: row must be a JSON array or object", target, line)
	}
}

func decodeJSONCell(cell any) (term.Value, error) {
	switch v := cell.(type) {
	case string:
		return term.String(v), nil
	case bool:
		return term.Bool(v), nil
	case json.Number:
		if i, err := strconv.ParseInt(string(v), 10, 64); err == nil {
			return term.Int(i), nil
		}
		f, err := v.Float64()
		if err != nil {
			return term.Value{}, fmt.Errorf("bad number %q: %w", v, err)
		}
		return term.Float(f), nil
	case map[string]any:
		return decodeTaggedJSONCell(v)
	default:
		return term.Value{}, fmt.Errorf("unsupported JSON cell %v (%T)", cell, cell)
	}
}

func decodeTaggedJSONCell(m map[string]any) (term.Value, error) {
	kind, _ := m["$k"].(string)
	switch kind {
	case "date", "null":
		num, ok := m["$v"].(json.Number)
		if !ok {
			return term.Value{}, fmt.Errorf("tagged %q cell needs a numeric $v", kind)
		}
		i, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil {
			return term.Value{}, err
		}
		if kind == "date" {
			return term.Date(i), nil
		}
		return term.Null(i), nil
	case "float":
		s, ok := m["$v"].(string)
		if !ok {
			return term.Value{}, fmt.Errorf("tagged float cell needs a string $v")
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return term.Value{}, err
		}
		return term.Float(f), nil
	case "set":
		s, ok := m["$v"].(string)
		if !ok {
			return term.Value{}, fmt.Errorf("tagged set cell needs a string $v")
		}
		set, ok := term.ParseCanonicalSet(s)
		if !ok {
			return term.Value{}, fmt.Errorf("bad set rendering %q", s)
		}
		return set, nil
	default:
		return term.Value{}, fmt.Errorf("unknown tagged cell kind %q", kind)
	}
}

func encodeJSONCell(v term.Value) any {
	switch v.Kind() {
	case term.KindString:
		return v.Str()
	case term.KindInt:
		return v.IntVal()
	case term.KindBool:
		return v.BoolVal()
	case term.KindFloat:
		f := v.FloatVal()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return map[string]any{"$k": "float", "$v": strconv.FormatFloat(f, 'g', -1, 64)}
		}
		s := strconv.FormatFloat(f, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // keep the float kind distinguishable from the equal int
		}
		return json.RawMessage(s)
	case term.KindDate:
		return map[string]any{"$k": "date", "$v": v.IntVal()}
	case term.KindNull:
		return map[string]any{"$k": "null", "$v": v.NullID()}
	case term.KindSet:
		return map[string]any{"$k": "set", "$v": v.String()}
	default:
		return nil
	}
}

// WriteAll persists rows to the file at b.Target: with an @mapping, one
// JSON object per row keyed by the mapped columns; without, one JSON
// array per row.
func (JSONL) WriteAll(_ context.Context, b Binding, rows [][]term.Value) error {
	f, err := os.Create(b.Target)
	if err != nil {
		return Classify(fmt.Errorf("source: create %s: %w", b.Target, err))
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, row := range rows {
		if len(b.Columns) > 0 {
			if len(row) != len(b.Columns) {
				return fmt.Errorf("source: %s: row width %d != %d mapped columns", b.Target, len(row), len(b.Columns))
			}
			obj := make(map[string]any, len(row))
			for j, v := range row {
				obj[b.Columns[j]] = encodeJSONCell(v)
			}
			if err := enc.Encode(obj); err != nil {
				return Classify(fmt.Errorf("source: write %s: %w", b.Target, err))
			}
			continue
		}
		arr := make([]any, len(row))
		for i, v := range row {
			arr[i] = encodeJSONCell(v)
		}
		if err := enc.Encode(arr); err != nil {
			return Classify(fmt.Errorf("source: write %s: %w", b.Target, err))
		}
	}
	if err := w.Flush(); err != nil {
		return Classify(fmt.Errorf("source: write %s: %w", b.Target, err))
	}
	return nil
}
