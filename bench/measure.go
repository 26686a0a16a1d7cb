package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/vadalog"
)

// prepared is the product of one set-up: generated inputs plus the program
// parsed and compiled once, ready to serve tasks.
type prepared struct {
	w     *workload
	in    *input
	prog  *vadalog.Program
	r     *vadalog.Reasoner
	outs  []string // predicates every task materialises, sorted
	first string   // predicate first_answer_s streams
}

// prepare runs one set-up of w: generate the inputs of seed, parse and
// compile the program.
func prepare(w *workload, seed int64, sz size, dir string) (*prepared, error) {
	in, err := w.build(seed, sz, dir)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	p := &prepared{w: w, in: in}
	if p.prog, p.r, err = p.compile(); err != nil {
		return nil, err
	}
	p.outs = outputPreds(p.prog)
	if p.first = w.first; p.first == "" {
		p.first = p.outs[len(p.outs)-1]
	}
	return p, nil
}

func (p *prepared) compile() (*vadalog.Program, *vadalog.Reasoner, error) {
	prog, err := vadalog.Parse(p.in.src)
	if err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", p.w.name, err)
	}
	r, err := vadalog.Compile(prog, &vadalog.Options{Engine: p.w.engine})
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s: %w", p.w.name, err)
	}
	return prog, r, nil
}

// answer is what one task returned: the admitted-fact count and every
// output predicate's facts.
type answer struct {
	derived int
	outputs map[string][]vadalog.Fact
	// result keeps the engine's database reachable for as long as the
	// answer is, which is what the retained-heap reading needs.
	result *vadalog.Result
}

// task runs one cold task on request payload i: Query on the compiled
// Reasoner (preceded by Parse+Compile where the workload says so) and the
// materialisation of every output predicate.
func (p *prepared) task(ctx context.Context, i int) (*answer, error) {
	r := p.r
	if p.w.compileInTask {
		var err error
		if _, r, err = p.compile(); err != nil {
			return nil, err
		}
	}
	res, err := r.Query(ctx, p.in.edbs[i%len(p.in.edbs)])
	if err != nil {
		return nil, err
	}
	a := &answer{derived: res.Derivations(), outputs: make(map[string][]vadalog.Fact, len(p.outs)), result: res}
	for _, pred := range p.outs {
		a.outputs[pred] = res.Output(pred)
	}
	return a, nil
}

// firstAnswer times Reasoner.Stream up to its first yielded fact (or to
// exhaustion when the predicate stays empty).
func (p *prepared) firstAnswer(ctx context.Context, i int) error {
	for _, err := range p.r.Stream(ctx, p.in.edbs[i%len(p.in.edbs)], p.first) {
		return err
	}
	return nil
}

// batchFloor is the least time a timed batch lasts: an operation of a few
// microseconds is repeated until the batch has run this long and the batch
// time is divided by the count, because a single reading of so short an
// interval measures the clock and the cache state, not the operation.
const batchFloor = 50 * time.Millisecond

// timeBatch returns the time of one op, from a batch of at least
// batchFloor.
func timeBatch(op func() error) (time.Duration, error) {
	start := time.Now()
	for n := 1; ; n++ {
		if err := op(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d >= batchFloor {
			return d / time.Duration(n), nil
		}
	}
}

// shape is the part of an answer cheap enough to compare on every task.
type shape struct {
	derived int
	counts  []int // per p.outs
}

func (p *prepared) shapeOf(a *answer) shape {
	s := shape{derived: a.derived, counts: make([]int, len(p.outs))}
	for i, pred := range p.outs {
		s.counts[i] = len(a.outputs[pred])
	}
	return s
}

// checkedTask runs and times task i, requires its answer to have the shape
// want holds for its payload, and counts it in tl either way.
func (p *prepared) checkedTask(ctx context.Context, i int, want []shape, tl *tally) (*answer, time.Duration, error) {
	t := time.Now()
	a, err := p.task(ctx, i)
	d := time.Since(t)
	if err == nil {
		err = p.checkShape(a, i, want)
	}
	tl.note(err)
	return a, d, err
}

func (p *prepared) checkShape(a *answer, i int, want []shape) error {
	if !p.shapeOf(a).equal(want[i%len(want)]) {
		return fmt.Errorf("%s: task %d: answer shape differs from the checked one", p.w.name, i)
	}
	return nil
}

func (s shape) equal(o shape) bool {
	if s.derived != o.derived || len(s.counts) != len(o.counts) {
		return false
	}
	for i := range s.counts {
		if s.counts[i] != o.counts[i] {
			return false
		}
	}
	return true
}

// tally counts tasks attempted and failed over a run. A task fails when it
// returns an error (a *vadalog.PartialResult is one) or an answer whose
// shape differs from the checked answer for the same payload.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) note(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// rounds holds the per-round samples of the single-client measurement.
type rounds struct {
	task     []time.Duration
	first    []time.Duration
	compile  []time.Duration
	mallocs  []float64 // per derived fact
	bytes    []float64 // per derived fact
	retained []float64 // per derived fact
	derived  int
}

// retainedRounds is how many rounds also read the retained heap, which
// costs a collection of the full result and repeats to a fraction of a
// percent.
const retainedRounds = 3

// runRounds repeats, for at least budget: one task from a collected heap
// with its allocation (and at first retained-heap) deltas, one first-answer
// batch and one front-end compile batch. want[i] is the checked shape of
// payload i.
func (p *prepared) runRounds(ctx context.Context, budget time.Duration, want []shape, tl *tally) (*rounds, error) {
	rs := &rounds{}
	var before, after, kept runtime.MemStats
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < budget; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		a, d, err := p.checkedTask(ctx, i, want, tl)
		runtime.ReadMemStats(&after)
		if err != nil {
			if tl.failed > 10 {
				return nil, fmt.Errorf("%s: tasks keep failing: %w", p.w.name, tl.firstErr)
			}
			continue
		}
		n := float64(a.derived)
		rs.derived = a.derived
		rs.task = append(rs.task, d)
		rs.mallocs = append(rs.mallocs, float64(after.Mallocs-before.Mallocs)/n)
		rs.bytes = append(rs.bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
		if len(rs.retained) < retainedRounds {
			// Retained heap: what stays reachable from the finished result,
			// inputs excluded (they were resident before the task).
			runtime.GC()
			runtime.ReadMemStats(&kept)
			rs.retained = append(rs.retained, (float64(kept.HeapAlloc)-float64(before.HeapAlloc))/n)
		}
		runtime.KeepAlive(a)
		a = nil

		runtime.GC()
		fa, err := timeBatch(func() error { return p.firstAnswer(ctx, i) })
		if err != nil {
			return nil, fmt.Errorf("%s: stream %s: %w", p.w.name, p.first, err)
		}
		rs.first = append(rs.first, fa)
		c, err := timeBatch(func() error { _, _, err := p.compile(); return err })
		if err != nil {
			return nil, err
		}
		rs.compile = append(rs.compile, c)
	}
	if len(rs.task) == 0 {
		return nil, fmt.Errorf("%s: no task succeeded: %w", p.w.name, tl.firstErr)
	}
	return rs, nil
}

// loopResult is what the closed loop of several clients measured.
type loopResult struct {
	latencies []time.Duration
	wall      time.Duration
	derived   int64
	mallocs   uint64
	bytes     uint64
}

// closedLoop runs clients goroutines for budget, each issuing its next task
// as soon as the previous one returned (a closed loop: a slower system
// receives less load). Clients walk the payloads from staggered offsets.
func (p *prepared) closedLoop(ctx context.Context, budget time.Duration, clients int, want []shape, tl *tally) *loopResult {
	type clientOut struct {
		lat     []time.Duration
		derived int64
	}
	outs := make([]clientOut, clients)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for i := c * len(want) / clients; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				a, d, err := p.checkedTask(ctx, i, want, tl)
				if err != nil {
					continue
				}
				o.lat = append(o.lat, d)
				o.derived += int64(a.derived)
			}
		}(c)
	}
	wg.Wait()
	res := &loopResult{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.bytes = after.TotalAlloc - before.TotalAlloc
	for _, o := range outs {
		res.latencies = append(res.latencies, o.lat...)
		res.derived += o.derived
	}
	return res
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
