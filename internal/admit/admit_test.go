package admit

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/term"
)

// harness is the smallest possible engine over a Core: its hook records
// every event, and fire matches one stored fact against every rule atom of
// its predicate — scheduling reduced to "the test says which delta".
type harness struct {
	t  *testing.T
	p  *Compiled
	c  *Core
	mt *eval.Matcher
	bs []*eval.Binding

	events     []string // hook calls, in order
	superseded []string // SupersessionObserver calls
	checks     int      // CheckTermination calls
}

// spyPolicy wraps the full strategy: it counts termination checks (a
// refused step must not reach the strategy), rejects every fact of one
// predicate, and records supersession notices.
type spyPolicy struct {
	core.Policy
	h      *harness
	reject string
}

func (p spyPolicy) CheckTermination(m *core.FactMeta) bool {
	p.h.checks++
	return m.Fact.Pred != p.reject && p.Policy.CheckTermination(m)
}

func (p spyPolicy) NoteSuperseded(old ast.Fact) {
	p.h.superseded = append(p.h.superseded, old.String())
}

// newHarness compiles src, marks the predicates in tags as harmful-join
// participants (pred -> twin, as rewrite.Result.TagPreds would), builds a
// Core whose policy rejects facts of reject, and loads the program's
// inline facts.
func newHarness(t *testing.T, src string, tags map[string]string, reject string) *harness {
	t.Helper()
	h := &harness{t: t}
	p, err := Compile(parser.MustParse(src), Config{
		NewPolicy: func(res *analysis.Result) core.Policy {
			return spyPolicy{Policy: core.NewStrategy(res), h: h, reject: reject}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for pred, twin := range tags {
		p.RW.TagPreds[pred] = twin
	}
	h.p, h.c = p, p.NewCore(func(m *core.FactMeta) { h.events = append(h.events, m.Fact.String()) })
	h.mt = &eval.Matcher{DB: h.c.DB()}
	for _, cr := range p.Rules {
		h.bs = append(h.bs, eval.NewBinding(cr))
	}
	for _, f := range p.Prog.Facts {
		h.c.LoadRow(f.Pred, f.Args)
	}
	return h
}

// meta returns the stored metadata of the fact rendered as s.
func (h *harness) meta(s string) *core.FactMeta {
	h.t.Helper()
	rel := h.c.DB().Lookup(s[:strings.IndexByte(s, '(')])
	for i := 0; rel != nil && i < rel.Len(); i++ {
		if m := rel.At(i); !m.Retracted && m.Fact.String() == s {
			return m
		}
	}
	h.t.Fatalf("fact %s is not stored", s)
	return nil
}

// fire emits every match of every rule with a body atom pinned to delta.
func (h *harness) fire(delta string) error {
	m := h.meta(delta)
	for ri, cr := range h.p.Rules {
		for pi, a := range cr.Pos {
			if a.Pred != m.Fact.Pred {
				continue
			}
			err := h.mt.MatchPinned(cr, pi, m, cr.ScheduleFor(pi, nil), h.bs[ri], func(b *eval.Binding) error {
				_, err := h.c.Emit(ri, b)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// capture matches rule 0 pinned to delta into a binding log, the way a
// match worker or a buffered pipeline firing does.
func (h *harness) capture(delta string) *eval.BindingLog {
	cr := h.p.Rules[0]
	lg := &eval.BindingLog{}
	lg.Shape(cr)
	err := h.mt.MatchPinned(cr, 0, h.meta(delta), cr.ScheduleFor(0, nil), h.bs[0], func(b *eval.Binding) error {
		lg.Capture(b)
		return nil
	})
	if err != nil {
		h.t.Fatal(err)
	}
	return lg
}

// replay runs lg's captured bindings of rule 0 through Core.Replay in
// canonical order.
func (h *harness) replay(lg *eval.BindingLog) {
	h.t.Helper()
	if _, err := h.c.Replay(0, lg, lg.CanonicalOrder(nil, 0, lg.Len()), h.bs[0], nil); err != nil {
		h.t.Fatal(err)
	}
}

// state renders everything a step may mutate: every row of every relation
// (retracted rows marked), the meter, the strategy's check count and the
// supersession notices.
func (h *harness) state() string {
	var sb strings.Builder
	for _, pred := range h.c.DB().Predicates() {
		rel := h.c.DB().Lookup(pred)
		for i := 0; i < rel.Len(); i++ {
			if m := rel.At(i); m.Retracted {
				fmt.Fprintf(&sb, "x%s ", m.Fact)
			} else {
				fmt.Fprintf(&sb, "%s ", m.Fact)
			}
		}
	}
	fmt.Fprintf(&sb, "| used=%d checks=%d events=%v superseded=%v", h.c.Derivations(), h.checks, h.events, h.superseded)
	return sb.String()
}

const sumRule = `c(G,N,W), V = msum(W,<N>) -> total(G,V).`

// TestHookContract drives the core one delta at a time and pins, per
// admission outcome, which hook events fire, what the meter charges and
// what the policy is told. Every case then runs again with the budget cut
// to zero headroom before each step in turn: a step refused with ErrBudget
// must have mutated nothing — storage, meter, strategy, aggregate state,
// hook — and re-firing it under a raised budget must reach the same final
// state as the uncut run.
func TestHookContract(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		tags   map[string]string
		reject string
		// steps are stored facts fired as deltas, in order.
		steps []string

		events     []string // hook events after the loads
		charged    int      // meter charges after the loads
		superseded []string
	}{
		{
			name: "fresh admit", src: `a(X) -> p(X). a(1).`,
			steps: []string{"a(1)"}, events: []string{"p(1)"}, charged: 1,
		},
		{
			name: "stored duplicate", src: `a(X) -> p(X). b(X) -> p(X). a(1). b(1).`,
			steps: []string{"a(1)", "b(1)"}, events: []string{"p(1)"}, charged: 1,
		},
		{
			name: "termination-rejected", src: `a(X) -> p(X). a(X) -> q(X). a(1).`, reject: "p",
			steps: []string{"a(1)"}, events: []string{"q(1)"}, charged: 1,
		},
		{
			name: "ReplaceDone", src: sumRule + ` c("g",1,1). c("g",2,2).`,
			steps:  []string{`c(g,1,1)`, `c(g,2,2)`},
			events: []string{"total(g,1)", "total(g,3)"}, charged: 2,
			superseded: []string{"total(g,1)"},
		},
		{
			// The improved value is already stored independently: the
			// superseded row is retracted, which is neither an admission
			// nor a charge.
			name: "ReplaceRetracted", src: sumRule + ` total("g",3). c("g",1,1). c("g",2,2).`,
			steps:  []string{`c(g,1,1)`, `c(g,2,2)`},
			events: []string{"total(g,1)"}, charged: 1,
			superseded: []string{"total(g,1)"},
		},
		{
			name: "ReplaceUnchanged", src: `c(G,N,W), V = msum(W,<N>) -> seen(G). c("g",1,1). c("g",2,2).`,
			steps:  []string{`c(g,1,1)`, `c(g,2,2)`},
			events: []string{"seen(g)"}, charged: 1,
		},
		{
			// Twins mirror admissions and supersessions, reach the hook
			// (the engines must schedule them) and are never charged.
			name: "tag twin insert and replace", src: sumRule + ` c("g",1,1). c("g",2,2).`,
			tags:   map[string]string{"total": "total__tag"},
			steps:  []string{`c(g,1,1)`, `c(g,2,2)`},
			events: []string{"total(g,1)", "total__tag(g,1)", "total(g,3)", "total__tag(g,3)"}, charged: 2,
			superseded: []string{"total(g,1)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drive := func(h *harness, step int) error { return h.fire(tc.steps[step]) }
			run := func(cutAt int) *harness {
				h := newHarness(t, tc.src, tc.tags, tc.reject)
				h.events, h.checks = nil, 0
				for step := 0; step < len(tc.steps); step++ {
					if step != cutAt {
						if err := drive(h, step); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						continue
					}
					limit := h.c.Meter().Limit()
					h.c.SetBudget(h.c.Derivations())
					before := h.state()
					err := drive(h, step)
					if err != nil && !errors.Is(err, ErrBudget) {
						t.Fatalf("step %d under an exhausted budget: %v", step, err)
					}
					if after := h.state(); err != nil && after != before {
						t.Errorf("step %d was refused but mutated state\nbefore: %s\n after: %s", step, before, after)
					}
					h.c.SetBudget(limit)
					if err == nil {
						continue // the step needed no budget
					}
					if err := drive(h, step); err != nil {
						t.Fatalf("step %d re-fired under the raised budget: %v", step, err)
					}
				}
				return h
			}
			h := run(-1)
			if !reflect.DeepEqual(h.events, tc.events) {
				t.Errorf("hook events = %v, want %v", h.events, tc.events)
			}
			if got := h.c.Derivations() - len(h.p.Prog.Facts); got != tc.charged {
				t.Errorf("meter charged %d derivations, want %d", got, tc.charged)
			}
			if !reflect.DeepEqual(h.superseded, tc.superseded) {
				t.Errorf("supersession notices = %v, want %v", h.superseded, tc.superseded)
			}
			want := h.state()
			for cutAt := 0; cutAt < len(tc.steps); cutAt++ {
				if got := run(cutAt).state(); got != want {
					t.Errorf("budget cut before step %d: final state differs\n got: %s\nwant: %s", cutAt, got, want)
				}
			}
		})
	}
}

// TestRowPathEdges covers what admitting by interned row can get wrong and
// admitting by boxed fact could not: every case fires deltas one at a time
// and pins the complete mutable state afterwards.
func TestRowPathEdges(t *testing.T) {
	// p is binary in the program: an EDB row of another width is refused
	// before it reaches the store, and the rule's head is probed and stored
	// at the one stride, then found again.
	refusedWidth := func(t *testing.T, row ast.Fact) {
		h := newHarness(t, `a(X) -> p(X,X). a(1). a(2).`, nil, "")
		if err := h.c.LoadRow(row.Pred, row.Args); !errors.Is(err, ErrArity) {
			t.Fatalf("load %v: %v, want ErrArity", row, err)
		}
		if h.c.DB().Lookup("p") != nil {
			t.Fatal("a refused row created its relation")
		}
		h.events = nil
		for _, d := range []string{"a(1)", "a(2)", "a(1)"} {
			if err := h.fire(d); err != nil {
				t.Fatal(err)
			}
		}
		if want := []string{"p(1,1)", "p(2,2)"}; !reflect.DeepEqual(h.events, want) {
			t.Errorf("events = %v, want %v", h.events, want)
		}
		if rel := h.c.DB().Lookup("p"); rel.Arity() != 2 || rel.Len() != 2 {
			t.Errorf("p: arity %d, %d rows, want arity 2, 2 rows", rel.Arity(), rel.Len())
		}
	}
	t.Run("relation wider than the head is refused", func(t *testing.T) {
		refusedWidth(t, ast.NewFact("p", term.Int(1), term.Int(1), term.Int(7)))
	})
	t.Run("relation narrower than the head is refused", func(t *testing.T) {
		refusedWidth(t, ast.NewFact("p", term.Int(1)))
	})
	t.Run("a refused load between capture and merge", func(t *testing.T) {
		// The bindings were captured before a load of another width was
		// refused: the replay meets the store the capture left, so p(5)
		// is admitted once and p(6) too.
		h := newHarness(t, `e(X,Y) -> p(Y). e(1,5). e(2,5). e(3,6).`, nil, "")
		if err := h.c.LoadRow("p", []term.Value{term.Int(9)}); err != nil {
			t.Fatal(err)
		}
		var logs []*eval.BindingLog
		for _, delta := range []string{"e(1,5)", "e(2,5)", "e(3,6)"} {
			logs = append(logs, h.capture(delta))
		}
		if err := h.c.LoadRow("p", []term.Value{term.Int(6), term.Int(0)}); !errors.Is(err, ErrArity) {
			t.Fatalf("load p(6,0): %v, want ErrArity", err)
		}
		h.events = nil
		for _, lg := range logs {
			h.replay(lg)
		}
		if want := []string{"p(5)", "p(6)"}; !reflect.DeepEqual(h.events, want) {
			t.Errorf("events = %v, want %v", h.events, want)
		}
	})
	t.Run("head constant never seen by the interner", func(t *testing.T) {
		// The first emission — replayed from a log captured before anything
		// held the constant — cannot resolve "fresh": the fact is stored
		// nowhere, no probe, and its insert interns it; later emissions
		// resolve the constant and probe by row.
		h := newHarness(t, `a(X) -> p(X,"fresh"). a(1). a(2).`, nil, "")
		h.events = nil
		if _, ok := h.c.DB().Interner().IDOf(term.String("fresh")); ok {
			t.Fatal("the head constant is interned before any emission")
		}
		lg1, lg2 := h.capture("a(1)"), h.capture("a(2)")
		h.replay(lg1)
		h.replay(lg2)
		for _, d := range []string{"a(1)", "a(2)"} {
			if err := h.fire(d); err != nil {
				t.Fatal(err)
			}
		}
		if want := []string{"p(1,fresh)", "p(2,fresh)"}; !reflect.DeepEqual(h.events, want) {
			t.Errorf("events = %v, want %v", h.events, want)
		}
	})
	t.Run("NaN head values share one ID", func(t *testing.T) {
		// Two different computations yield NaN; the second is a duplicate of
		// the first although NaN != NaN.
		h := newHarness(t, `v(X), Y = X / X -> w(Y). w(X), Y = X + 1.0 -> w(Y). v(0.0).`, nil, "")
		h.events = nil
		if err := h.fire("v(0)"); err != nil {
			t.Fatal(err)
		}
		if err := h.fire("w(NaN)"); err != nil {
			t.Fatal(err)
		}
		if want := []string{"w(NaN)"}; !reflect.DeepEqual(h.events, want) {
			t.Errorf("events = %v, want %v", h.events, want)
		}
	})
	t.Run("EGD substitution resolves head values before the probe", func(t *testing.T) {
		// Once the EGD equates the null with "c", s(Y) is s(c) — stored
		// already, so a duplicate; an unresolved row would admit s(_:n1).
		h := newHarness(t, `a(X) -> q(X,Z). q(X,Y), r(X,W) -> Y = W. q(X,Y) -> s(Y).
			a(1). r(1,"c"). s("c").`, nil, "")
		h.events = nil
		if err := h.fire("a(1)"); err != nil {
			t.Fatal(err)
		}
		q := h.c.DB().Lookup("q").At(0).Fact.String()
		if err := h.fire(q); err != nil {
			t.Fatal(err)
		}
		if h.c.Subst().Empty() {
			t.Fatal("the EGD did not fire")
		}
		if want := []string{q}; !reflect.DeepEqual(h.events, want) {
			t.Errorf("events = %v, want %v", h.events, want)
		}
		if n := h.c.DB().Lookup("s").Len(); n != 1 {
			t.Errorf("s holds %d rows, want only the inline s(c)", n)
		}
	})
	t.Run("tag twin of an admitted row", func(t *testing.T) {
		h := newHarness(t, `a(X) -> p(X). a(1).`, map[string]string{"p": "p__tag"}, "")
		h.events = nil
		for i := 0; i < 2; i++ {
			if err := h.fire("a(1)"); err != nil {
				t.Fatal(err)
			}
		}
		if want := []string{"p(1)", "p__tag(1)"}; !reflect.DeepEqual(h.events, want) {
			t.Errorf("events = %v, want %v", h.events, want)
		}
		if got := h.c.Derivations() - len(h.p.Prog.Facts); got != 1 {
			t.Errorf("charged %d derivations, want 1 (twins are not charged)", got)
		}
	})
}
