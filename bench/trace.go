package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's side, around calls into each layer's public functions;
// spans inside the engines are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	// Task identifies the traced task the span belongs to, so the spans of
	// one request share an identifier.
	Task    int   `json:"task"`
	StartNS int64 `json:"start_ns"` // since the tracer was created
	EndNS   int64 `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; write puts them on disk when the run ends.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent, task int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Task: task,
		StartNS: int64(time.Since(t.origin))})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.origin))
	return s.duration()
}

// synthetic records a child span of known duration that was not timed from
// outside (an engine's own phase clock), laid out offset after the parent's
// start.
func (t *tracer) synthetic(name string, parent, task int, offset, d time.Duration) {
	start := t.spans[parent-1].StartNS + int64(offset)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Task: task,
		StartNS: start, EndNS: start + int64(d)})
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, upTo), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[s.ID] = s.duration() - time.Duration(covered)
	}
	return self
}

// traceFile is what write puts on disk.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
	// SelfNS is each span's self time, keyed by span id.
	SelfNS map[int]int64 `json:"self_ns"`
}

func (t *tracer) write(dir string, seed int64) (string, error) {
	tf := traceFile{Workload: t.workload, Seed: seed, Spans: t.spans, SelfNS: map[int]int64{}}
	for id, d := range selfTimes(t.spans) {
		tf.SelfNS[id] = int64(d)
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
