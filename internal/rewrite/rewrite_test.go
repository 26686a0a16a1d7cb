package rewrite

import (
	"testing"

	"repro/internal/analysis"
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
	out, tags, notes := EliminateHarmfulJoinsDynamic(prog)
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
	out, tags, _ := EliminateHarmfulJoinsDynamic(prog)
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
