package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/baseline"
	"repro/vadalog"
)

// The output checks. The reference a workload's answers are compared with
// is never the engine under test alone: a direct fixpoint written here
// (control-agg), the semi-naive baseline.BulkEngine (lubm-q9, csv-stream),
// or the other engine of the pair (the rest). On top of that, seed 1 at the
// default size must reproduce the committed expected.json exactly.

// outcome is an answer set reduced to what expected.json records.
type outcome struct {
	Derived int `json:"derived_facts"`
	// Outputs and NullFacts count, per output predicate, all facts and the
	// facts carrying a labelled null.
	Outputs   map[string]int `json:"outputs"`
	NullFacts map[string]int `json:"null_facts"`
	// Digest is the FNV-64a hash of the sorted ground facts, each prefixed
	// by its payload index. Null-carrying facts are left out: null names
	// are an artefact of admission order, not part of the answer.
	Digest string `json:"digest"`
}

// groundLines renders the ground facts of pred in a, sorted.
func groundLines(a *answer, pred string) (lines []string, nulls int) {
	for _, f := range a.outputs[pred] {
		if f.IsGround() {
			lines = append(lines, f.String())
		} else {
			nulls++
		}
	}
	sort.Strings(lines)
	return lines, nulls
}

func outcomeOf(outs []string, answers []*answer) outcome {
	o := outcome{Outputs: map[string]int{}, NullFacts: map[string]int{}}
	h := fnv.New64a()
	for i, a := range answers {
		o.Derived += a.derived
		for _, pred := range outs {
			lines, nulls := groundLines(a, pred)
			o.Outputs[pred] += len(a.outputs[pred])
			o.NullFacts[pred] += nulls
			for _, l := range lines {
				fmt.Fprintf(h, "%d|%s\n", i, l)
			}
		}
	}
	o.Digest = fmt.Sprintf("%016x", h.Sum64())
	return o
}

func (o outcome) equal(e outcome) error {
	if o.Derived != e.Derived {
		return fmt.Errorf("derived_facts = %d, expected %d", o.Derived, e.Derived)
	}
	for pred, n := range e.Outputs {
		if o.Outputs[pred] != n {
			return fmt.Errorf("%s has %d facts, expected %d", pred, o.Outputs[pred], n)
		}
		if o.NullFacts[pred] != e.NullFacts[pred] {
			return fmt.Errorf("%s has %d null-carrying facts, expected %d", pred, o.NullFacts[pred], e.NullFacts[pred])
		}
	}
	if len(o.Outputs) != len(e.Outputs) {
		return fmt.Errorf("%d output predicates, expected %d", len(o.Outputs), len(e.Outputs))
	}
	if o.Digest != e.Digest {
		return fmt.Errorf("ground-fact digest = %s, expected %s", o.Digest, e.Digest)
	}
	return nil
}

//go:embed expected.json
var expectedJSON []byte

// expectedSeed is the only seed expected.json covers; any other seed skips
// that one check and keeps all the others.
const expectedSeed = 1

func checkExpected(name string, got outcome) error {
	var all map[string]outcome
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	want, ok := all[name]
	if !ok {
		return fmt.Errorf("expected.json has no entry for %s", name)
	}
	if err := got.equal(want); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	return nil
}

// sameLines compares two sorted fact listings.
func sameLines(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d ground facts, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: fact %q, reference has %q", what, got[i], want[i])
		}
	}
	return nil
}

// verifyOtherEngine re-runs every payload on the engine the workload does
// not measure and requires identical ground facts and identical counts of
// null-carrying facts per output predicate. The reference run is serial,
// so on serve-small it also checks the concurrent replies.
func verifyOtherEngine(ctx context.Context, p *prepared, answers []*answer) error {
	other := vadalog.EngineChase
	if p.w.engine == vadalog.EngineChase {
		other = vadalog.EnginePipeline
	}
	r, err := vadalog.Compile(p.prog, &vadalog.Options{Engine: other})
	if err != nil {
		return fmt.Errorf("reference compile: %w", err)
	}
	for i, a := range answers {
		res, err := r.Query(ctx, p.in.edbs[i])
		if err != nil {
			return fmt.Errorf("reference run %d: %w", i, err)
		}
		b := &answer{outputs: map[string][]vadalog.Fact{}}
		for _, pred := range p.outs {
			b.outputs[pred] = res.Output(pred)
		}
		for _, pred := range p.outs {
			got, gotNulls := groundLines(a, pred)
			want, wantNulls := groundLines(b, pred)
			what := fmt.Sprintf("payload %d, %s", i, pred)
			if err := sameLines(what, got, want); err != nil {
				return err
			}
			if gotNulls != wantNulls {
				return fmt.Errorf("%s: %d null-carrying facts, reference has %d", what, gotNulls, wantNulls)
			}
		}
	}
	return nil
}

// verifyBulk compares the outputs with baseline.BulkEngine over the
// program's plain-Datalog part. Dropping the existential rules loses no
// answer on the workloads that use this check: their output predicates
// join only positions no invented null can reach.
func verifyBulk(_ context.Context, p *prepared, answers []*answer) error {
	prog, err := vadalog.Parse(p.in.src)
	if err != nil {
		return err
	}
	rules := prog.Rules[:0]
	for _, r := range prog.Rules {
		if len(r.Existentials()) == 0 {
			rules = append(rules, r)
		}
	}
	prog.Rules = rules
	be, err := baseline.NewBulkEngine(prog)
	if err != nil {
		return err
	}
	if err := be.Run(p.in.firstPayload()); err != nil {
		return err
	}
	for _, pred := range p.outs {
		got, nulls := groundLines(answers[0], pred)
		if nulls != 0 {
			return fmt.Errorf("%s: %d null-carrying facts in a ground answer", pred, nulls)
		}
		want, _ := groundLines(&answer{outputs: map[string][]vadalog.Fact{pred: be.Facts(pred)}}, pred)
		if err := sameLines(pred, got, want); err != nil {
			return err
		}
	}
	return nil
}

// verifyControl compares `control` with a direct fixpoint over the
// ownership map: X controls Z when the companies X controls hold, each
// counted once with its largest stake, more than half of Z. The engine
// folds the stakes in its own order, so sums within eps of one half may
// fall either way: the answer must contain the closure taken at 0.5+eps
// and be contained in the closure taken at 0.5-eps.
func verifyControl(_ context.Context, p *prepared, answers []*answer) error {
	const eps = 1e-9
	type stake struct {
		to string
		w  float64
	}
	best := map[[2]string]float64{}
	for _, f := range p.in.edbs[0] {
		k := [2]string{f.Args[0].Str(), f.Args[1].Str()}
		best[k] = max(best[k], f.Args[2].FloatVal())
	}
	owns := map[string][]stake{}
	for k, w := range best {
		owns[k[0]] = append(owns[k[0]], stake{k[1], w})
	}
	closure := func(threshold float64) map[[2]string]bool {
		out := map[[2]string]bool{}
		for x, direct := range owns {
			controlled := map[string]bool{}
			sum := map[string]float64{}
			var todo []string
			add := func(y string) {
				if !controlled[y] {
					controlled[y] = true
					todo = append(todo, y)
					out[[2]string{x, y}] = true
				}
			}
			for _, s := range direct {
				if s.w > threshold {
					add(s.to)
				}
			}
			for len(todo) > 0 {
				y := todo[len(todo)-1]
				todo = todo[:len(todo)-1]
				for _, s := range owns[y] {
					sum[s.to] += s.w
					if sum[s.to] > threshold {
						add(s.to)
					}
				}
			}
		}
		return out
	}
	must, may := closure(0.5+eps), closure(0.5-eps)
	got := map[[2]string]bool{}
	for _, f := range answers[0].outputs["control"] {
		got[[2]string{f.Args[0].Str(), f.Args[1].Str()}] = true
	}
	if len(got) != len(answers[0].outputs["control"]) {
		return fmt.Errorf("control: duplicate facts in the answer")
	}
	for k := range must {
		if !got[k] {
			return fmt.Errorf("control(%s,%s) missing from the answer", k[0], k[1])
		}
	}
	for k := range got {
		if !may[k] {
			return fmt.Errorf("control(%s,%s) is not implied by the ownership map", k[0], k[1])
		}
	}
	return nil
}

// verifyPSC compares every reply of serve-small with a direct fixpoint of
// the AllPSC program: a company X has the fact pscSet(X,K) for K its own
// key persons, and pscSet(X,U) for U everything the companies controlling X
// contribute. One gap is tolerated, the one ROADMAP records as open
// (supersession does not cascade): the pipeline can drop a fact of one rule
// that coincided with a transient value of the other, and such a fact is
// always a strict subset of a set the reply does hold for that company.
func verifyPSC(_ context.Context, p *prepared, answers []*answer) error {
	for i, a := range answers {
		person := map[string]bool{}
		key := map[string]map[string]bool{}
		parents := map[string][]string{}
		for _, f := range p.in.edbs[i] {
			switch f.Pred {
			case "person":
				person[f.Args[0].Str()] = true
			case "control":
				parents[f.Args[1].Str()] = append(parents[f.Args[1].Str()], f.Args[0].Str())
			}
		}
		for _, f := range p.in.edbs[i] {
			if f.Pred == "keyPerson" && person[f.Args[1].Str()] {
				x := f.Args[0].Str()
				if key[x] == nil {
					key[x] = map[string]bool{}
				}
				key[x][f.Args[1].Str()] = true
			}
		}
		// inherited[x] grows to the union, over every company controlling
		// x, of its key persons and its own inherited set.
		inherited := map[string]map[string]bool{}
		for changed := true; changed; {
			changed = false
			for x, ps := range parents {
				for _, y := range ps {
					for _, src := range []map[string]bool{key[y], inherited[y]} {
						for person := range src {
							if inherited[x] == nil {
								inherited[x] = map[string]bool{}
							}
							if !inherited[x][person] {
								inherited[x][person] = true
								changed = true
							}
						}
					}
				}
			}
		}
		type setFact struct {
			company string
			members map[string]bool
		}
		var want []setFact
		for x, s := range key {
			want = append(want, setFact{x, s})
		}
		for x, s := range inherited {
			want = append(want, setFact{x, s})
		}
		subset := func(a, b map[string]bool) bool {
			for m := range a {
				if !b[m] {
					return false
				}
			}
			return true
		}
		var got []setFact
		for _, f := range a.outputs["pscSet"] {
			g := setFact{f.Args[0].Str(), map[string]bool{}}
			for _, m := range f.Args[1].SetElems() {
				g.members[m.Str()] = true
			}
			sound := false
			for _, w := range want {
				if w.company == g.company && len(w.members) == len(g.members) && subset(g.members, w.members) {
					sound = true
				}
			}
			if !sound {
				return fmt.Errorf("payload %d: %s is not implied by the inputs", i, f)
			}
			got = append(got, g)
		}
		for _, w := range want {
			covered := false
			for _, g := range got {
				if g.company == w.company && subset(w.members, g.members) {
					covered = true
				}
			}
			if !covered {
				return fmt.Errorf("payload %d: no pscSet fact of %s holds its %d persons of significant control", i, w.company, len(w.members))
			}
		}
	}
	return nil
}
