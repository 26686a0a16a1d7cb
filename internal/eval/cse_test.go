package eval

import (
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/parser"
)

// compileAll compiles every rule of src.
func compileAll(t *testing.T, src string) []*CompiledRule {
	t.Helper()
	prog := parser.MustParse(src)
	res := analysis.Analyze(prog)
	out := make([]*CompiledRule, len(prog.Rules))
	for i, r := range prog.Rules {
		cr, err := Compile(r, res.Rules[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = cr
	}
	return out
}

// condSteps returns the condition indexes of steps, in order.
func condSteps(steps []Step) []int {
	var out []int
	for _, st := range steps {
		if st.Kind == StepCond {
			out = append(out, st.Index)
		}
	}
	return out
}

// TestSharedCondsCanonical: the shared set is rendered under the body's
// canonical slots, so renaming a rule's variables or reordering its
// conditions leaves it unchanged, and a group body built from any member
// tests the same conditions.
func TestSharedCondsCanonical(t *testing.T) {
	crs := compileAll(t, `
		t(X,P), t(Y,P), X > Y, P != "z", X >= 3 -> a(X,Y).
		t(A,Q), t(B,Q), A >= 3, Q != "z", A > B -> b(A).
		t(U,R), t(V,R), R != "z", U > V, U >= 3, V < 9 -> c(V).
	`)
	sig, ok := crs[0].BodySignature()
	for _, cr := range crs[1:] {
		if s, k := cr.BodySignature(); !ok || !k || s != sig {
			t.Fatalf("bodies differ: %q vs %q", s, sig)
		}
	}
	shared := SharedConds(crs)
	if len(shared) != 3 {
		t.Fatalf("shared %q, want the three conditions every rule has", shared)
	}
	for _, perm := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		members := []*CompiledRule{crs[perm[0]], crs[perm[1]], crs[perm[2]]}
		if got := SharedConds(members); !slices.Equal(got, shared) {
			t.Errorf("members in order %v share %q, want %q", perm, got, shared)
		}
		body := members[0].BodyMatcher(shared)
		if got := body.condKeys(); !slices.Equal(got, shared) {
			t.Errorf("body of rule %d tests %q, want %q", perm[0], got, shared)
		}
		var got []string
		for i := range body.Conds {
			got = append(got, body.Conds[i].Cond.String())
		}
		slices.Sort(got)
		want := map[int][]string{
			0: {"P != z", "X > Y", "X >= 3"},
			1: {"A > B", "A >= 3", "Q != z"},
			2: {"R != z", "U > V", "U >= 3"},
		}[perm[0]]
		if !slices.Equal(got, want) {
			t.Errorf("body of rule %d tests %q, want %q", perm[0], got, want)
		}
	}
}

// TestSharedCondsMemberWithout: a member that lacks a condition keeps its
// group — grouping is by body alone — and the condition stays private to
// the members that have it.
func TestSharedCondsMemberWithout(t *testing.T) {
	crs := compileAll(t, `
		t(X,P), t(Y,P), X > Y -> a(X,Y).
		t(X,P), t(Y,P), X > Y -> b(X,Y).
		t(X,P), t(Y,P) -> c(X,Y).
	`)
	sig, _ := crs[0].BodySignature()
	if s, ok := crs[2].BodySignature(); !ok || s != sig {
		t.Fatalf("a member without the condition has another body: %q vs %q", s, sig)
	}
	shared := SharedConds(crs)
	if len(shared) != 0 {
		t.Fatalf("shared %q, want nothing", shared)
	}
	if body := crs[0].BodyMatcher(shared); len(body.Conds) != 0 {
		t.Errorf("group body tests %d conditions, want 0", len(body.Conds))
	}
	if got := condSteps(crs[0].PostMatchSteps(shared)); !slices.Equal(got, []int{0}) {
		t.Errorf("member replays conditions %v, want [0]", got)
	}
	if got := SharedConds(crs[:2]); len(got) != 1 {
		t.Errorf("the two members with X > Y share %q, want it", got)
	}
}

// TestSharedCondsPrivate: only a condition whose sides are each a body
// variable or a constant can move into the body — it cannot fail to
// evaluate. An arithmetic side, or a variable an assignment binds, keeps the
// condition in every member's replay.
func TestSharedCondsPrivate(t *testing.T) {
	crs := compileAll(t, `
		t(X,P), t(Y,P), X + 1 > Y, W = X * 2, W > Y -> a(X,Y,W).
		t(X,P), t(Y,P), X + 1 > Y, W = X * 2, W > Y -> b(X,Y,W).
	`)
	if shared := SharedConds(crs); len(shared) != 0 {
		t.Fatalf("shared %q, want nothing", shared)
	}
	for _, cr := range crs {
		if got := condSteps(cr.PostMatchSteps(nil)); len(got) != 2 {
			t.Errorf("rule replays conditions %v, want both", got)
		}
	}
}

// TestPostMatchStepsOmitShared: a member's replay leaves out exactly the
// shared conditions and keeps every assignment and every other condition.
func TestPostMatchStepsOmitShared(t *testing.T) {
	crs := compileAll(t, `
		t(X,P), t(Y,P), X > Y, Z = X + Y, Z > 4, P == 1 -> a(X,Z).
		t(X,P), t(Y,P), P == 1, X > Y, X != 7 -> b(X).
	`)
	shared := SharedConds(crs)
	if len(shared) != 2 {
		t.Fatalf("shared %q, want X > Y and P == 1", shared)
	}
	for ri, want := range [][]int{{1}, {2}} {
		cr := crs[ri]
		full, post := cr.PostMatchSteps(nil), cr.PostMatchSteps(shared)
		if got := condSteps(post); !slices.Equal(got, want) {
			t.Errorf("rule %d replays conditions %v, want %v", ri, got, want)
		}
		if len(full)-len(post) != len(shared) {
			t.Errorf("rule %d: %d steps without sharing, %d with, want %d fewer", ri, len(full), len(post), len(shared))
		}
		for _, st := range full {
			if st.Kind == StepAssign && !slices.Contains(post, st) {
				t.Errorf("rule %d: assignment %d dropped", ri, st.Index)
			}
		}
	}
}
