package rewrite

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/gen/ibench"
	"repro/internal/gen/iwarded"
	"repro/internal/parser"
)

func TestSplitMultiHeads(t *testing.T) {
	prog := parser.MustParse(`
		incorp(X,Y) -> own(Z, X), own(Z, Y).
	`)
	out := SplitMultiHeads(prog)
	if len(out.Rules) != 2 {
		t.Fatalf("rules: %d", len(out.Rules))
	}
	// Both split rules must share the Skolem base so Z denotes one null.
	if out.Rules[0].SkolemBase() != out.Rules[1].SkolemBase() {
		t.Errorf("skolem bases differ: %s vs %s",
			out.Rules[0].SkolemBase(), out.Rules[1].SkolemBase())
	}
}

func TestLinearizeExistentials(t *testing.T) {
	prog := parser.MustParse(`
		a(X,Y), b(Y,Z) -> c(X, W).
	`)
	aux := make(map[string]bool)
	out := LinearizeExistentials(prog, aux)
	if len(out.Rules) != 2 {
		t.Fatalf("rules: %d", len(out.Rules))
	}
	res := analysis.Analyze(out)
	for _, ri := range res.Rules {
		if len(ri.Rule.Existentials()) > 0 && !ri.Rule.IsLinear() {
			t.Errorf("existential rule still non-linear: %s", ri.Rule)
		}
	}
	if len(aux) != 1 {
		t.Errorf("aux preds: %v", aux)
	}
}

func TestDynamicHJEMakesHarmless(t *testing.T) {
	prog := parser.MustParse(`
		keyPerson(X,P) -> psc(X,P).
		company(X) -> psc(X, P).
		control(Y,X), psc(Y,P) -> psc(X,P).
		psc(X,P), psc(Y,P), X > Y -> strongLink(X,Y).
	`)
	out, tags, notes := EliminateHarmfulJoinsDynamic(prog, analysis.Analyze(prog))
	if len(tags) == 0 || tags["psc"] == "" {
		t.Fatalf("psc must get a tag twin: %v", tags)
	}
	if len(notes) == 0 {
		t.Error("expected rewrite notes")
	}
	res := analysis.Analyze(out)
	for _, ri := range res.Rules {
		if ri.HasHarmfulJoin {
			t.Errorf("harmful join survives: %s", ri.Rule)
		}
	}
	if !res.Warded {
		t.Errorf("rewritten program must stay warded: %v", res.Violations)
	}
}

func TestDynamicHJENoChange(t *testing.T) {
	prog := parser.MustParse(`
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
	`)
	out, tags, _ := EliminateHarmfulJoinsDynamic(prog, analysis.Analyze(prog))
	if len(tags) != 0 {
		t.Errorf("no harmful joins, no tags: %v", tags)
	}
	if out != prog {
		t.Error("program without harmful joins should be returned unchanged")
	}
}

func TestApplyDefaultPipeline(t *testing.T) {
	prog := parser.MustParse(`
		incorp(X,Y) -> own(Z, X), own(Z, Y).
		a(X,Y), b(Y,Z) -> c(X, W).
		own(Z,X), own(Z,Y), X != Y -> siblings(X,Y).
	`)
	res, err := Apply(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ana := analysis.Analyze(res.Program)
	if !ana.Warded {
		t.Fatalf("pipeline output must be warded: %v", ana.Violations)
	}
	for _, ri := range ana.Rules {
		if ri.HasHarmfulJoin {
			t.Errorf("harmful join survives Apply: %s", ri.Rule)
		}
		if len(ri.Rule.Existentials()) > 0 && !ri.Rule.IsLinear() {
			t.Errorf("non-linear existential survives Apply: %s", ri.Rule)
		}
		if len(ri.Rule.Heads) > 1 {
			t.Errorf("multi-head survives Apply: %s", ri.Rule)
		}
	}
	// Rule IDs must be consecutive after renumbering.
	for i, r := range res.Program.Rules {
		if r.ID != i {
			t.Errorf("rule %d has ID %d", i, r.ID)
		}
	}
}

// corpus returns the sources the front-end properties are checked on: the
// lint corpus, the shipped examples, every iBench ONT-256 query compiled
// with its mapping rules, and the eight iWarded presets.
func corpus(t *testing.T) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	for _, pattern := range []string{"../lint/testdata/*.vada", "../../examples/programs/*.vada"} {
		m, err := filepath.Glob(pattern)
		if err != nil || len(m) == 0 {
			t.Fatalf("%s: no programs (%v)", pattern, err)
		}
		for _, file := range m {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			srcs[file] = string(b)
		}
	}
	ont := ibench.Generate(ibench.ONT256())
	for i, q := range ont.Queries {
		srcs[fmt.Sprintf("ONT-256/q%d", i)] = ont.Source + q
	}
	for _, cfg := range iwarded.Scenarios() {
		cfg.FactsPerRel = 1
		g, err := iwarded.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srcs["iwarded/"+cfg.Name] = g.Source
	}
	return srcs
}

// TestAnalysisHandedOn pins that the analysis Apply hands on is exactly the
// one of the program it returns — rule infos, affected positions,
// violations, and each RuleInfo naming the returned program's rule at its
// position — whether or not harmful-join elimination rewrote anything.
func TestAnalysisHandedOn(t *testing.T) {
	rewritten, total := 0, 0
	for name, src := range corpus(t) {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rw, err := Apply(prog, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total++
		if len(rw.TagPreds) > 0 {
			rewritten++
		}
		if want := analysis.Analyze(rw.Program); !reflect.DeepEqual(rw.Analysis, want) {
			t.Errorf("%s: handed-on analysis differs from Analyze of the rewritten program", name)
		}
		for i, r := range rw.Program.Rules {
			if rw.Analysis.Rules[i].Rule != r || r.ID != i {
				t.Errorf("%s: rule %d (ID %d) is not the one its RuleInfo analyzed", name, i, r.ID)
			}
		}
	}
	if rewritten == 0 || rewritten == total {
		t.Errorf("%d of %d programs rewritten: both branches of Apply must be covered", rewritten, total)
	}
}

// TestApplySharesRules pins the copy-on-write contract of the front end:
// Apply writes into no rule of its input (the input deep-equals a fresh
// parse of the same source afterwards), and a rule that no pass changed
// and that kept its position is the input's own pointer.
func TestApplySharesRules(t *testing.T) {
	srcs := corpus(t)
	srcs["untouched"] = `
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		node(X) -> tagged(X,T).
		tagged(X,T), not path(X,X) -> acyclic(X,T).
		@output("acyclic").`
	shared := 0
	for name, src := range srcs {
		prog, fresh := parser.MustParse(src), parser.MustParse(src)
		rw, err := Apply(prog, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(prog.Rules, fresh.Rules) {
			t.Errorf("%s: Apply wrote into an input rule", name)
		}
		for i, r := range rw.Program.Rules {
			if i < len(prog.Rules) && reflect.DeepEqual(r, prog.Rules[i]) {
				if r != prog.Rules[i] {
					t.Errorf("%s: rule %d is an unchanged copy, not the input's rule", name, i)
				}
				shared++
			}
		}
	}
	prog := parser.MustParse(srcs["untouched"])
	rw, err := Apply(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rw.Program.Rules, prog.Rules) {
		t.Errorf("a program no pass changes must come back with its own rules: %v", rw.Program.Rules)
	}
	if shared == 0 {
		t.Error("no rule was shared")
	}
}
