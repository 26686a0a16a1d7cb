package eval

import "testing"

func matchOrder(steps []Step) []int {
	var order []int
	for _, st := range steps {
		if st.Kind == StepMatch {
			order = append(order, st.Index)
		}
	}
	return order
}

// TestStaticScheduleTieBreakSourceOrder pins the static schedule's
// documented tie-break: when several candidate atoms bind equally many
// positions, the earliest source-order atom is matched first. This is the
// fallback order the cost-based planner is measured against, so it must
// not drift.
func TestStaticScheduleTieBreakSourceOrder(t *testing.T) {
	cr, _ := compileFirst(t, `a(X), b(X), c(X) -> h(X).`)
	got := matchOrder(cr.ScheduleFor(0, nil))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("pinned 0: match order %v, want [1 2]", got)
	}
	// Pinned on the last atom the tie is between a and b: source order again.
	got = matchOrder(cr.ScheduleFor(2, nil))
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("pinned 2: match order %v, want [0 1]", got)
	}
}

// TestScheduleForExplicitOrder: ScheduleFor honors the planner's explicit
// atom order, and an exhausted explicit order falls back to the greedy
// picker rather than dropping atoms.
func TestScheduleForExplicitOrder(t *testing.T) {
	cr, _ := compileFirst(t, `a(X), b(X), c(X) -> h(X).`)
	got := matchOrder(cr.ScheduleFor(0, []int{2, 1}))
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("explicit order: %v, want [2 1]", got)
	}
	got = matchOrder(cr.ScheduleFor(0, []int{2}))
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("partial order must complete greedily: %v, want [2 1]", got)
	}
}

// allocRule is a fixed multi-atom rule with every per-atom structure a
// compile builds: constants, an anonymous position, a repeated variable, a
// negated atom, a condition, an assignment and an existential head.
const allocRule = `a(X,Y,_), b(Y,Z,"k"), c(Z,X), not d(Z,_), Z > 1, W = Z + 1 -> h(X,W,N), g(Y).`

// TestCompileAllocations pins what compiling a rule costs: every atom's
// IsVar, Slot and Const are cut from three per-rule blocks, so adding atoms
// to a rule adds no allocation of its own to these, and Compile builds no
// schedule (the planner derives them; admit.Compile builds the static ones
// of the rules that run them). The bound is this rule's count.
func TestCompileAllocations(t *testing.T) {
	_, res := compileFirst(t, allocRule)
	rule, info := res.Program.Rules[0], res.Rules[0]
	const maxCompile = 26
	if n := testing.AllocsPerRun(50, func() {
		if _, err := Compile(rule, info); err != nil {
			t.Fatal(err)
		}
	}); n > maxCompile {
		t.Errorf("Compile: %.1f allocations, want at most %d", n, maxCompile)
	}
}

// TestNewBindingAllocations pins a binding at a fixed handful of
// allocations whatever the rule's width: IDs and every probe buffer share
// one block, Bound and the computed-value flags another.
func TestNewBindingAllocations(t *testing.T) {
	cr, _ := compileFirst(t, allocRule)
	const maxBinding = 9
	if n := testing.AllocsPerRun(50, func() { NewBinding(cr) }); n > maxBinding {
		t.Errorf("NewBinding: %.1f allocations, want at most %d", n, maxBinding)
	}
}
