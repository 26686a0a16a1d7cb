package eval

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

// orderValues is the pool the ordering property test draws arguments from:
// every term.Kind, and the pairs whose rendered forms are most likely to
// disagree between "compare the joined key" and "compare column by column".
func orderValues() []term.Value {
	return []term.Value{
		term.String("a"), term.String("a!"), term.String("a,"), term.String("a b"),
		term.String("ab"), term.String("abc"), term.String("A"), term.String("_x"),
		term.String(""), term.String("7up"), term.String("a\x00b"), term.String("a\"b"),
		term.String("é"), term.String("#t"), term.String("_:n1"), term.String("d3"),
		term.Int(2), term.Int(10), term.Int(-1), term.Int(0), term.Int(100),
		term.Float(2), term.Float(2.5), term.Float(-0.5), term.Float(1e21),
		term.Float(math.NaN()), term.Float(math.Copysign(0, -1)), term.Float(0),
		term.Float(math.Inf(1)), term.Float(math.Inf(-1)),
		term.Date(3), term.Date(30), term.Date(-2),
		term.Bool(true), term.Bool(false),
		term.Null(1), term.Null(9), term.Null(10), term.Null(123),
		term.Set(nil), term.Set([]term.Value{term.Int(1), term.String("x y")}),
		term.Set([]term.Value{term.Int(1)}), term.Set([]term.Value{term.Float(1)}),
	}
}

// TestSortCanonicalMatchesKeyOrder keeps "sort by Fact.Key()" as the
// reference implementation of canonical order and checks sortCanonical
// yields the same sequence on generated facts. It also proves what makes a
// rendered-once key valid: no rendered value contains the 0 byte Key() joins
// with, so the joined key orders exactly like its columns, and a predicate
// plus AppendArgsKey is Key() byte for byte.
func TestSortCanonicalMatchesKeyOrder(t *testing.T) {
	vals := orderValues()
	for _, v := range vals {
		r := v.AppendString(nil)
		if string(r) != v.String() {
			t.Errorf("AppendString(%#v) = %q, String() = %q", v, r, v.String())
		}
		if bytes.IndexByte(r, 0) >= 0 {
			t.Errorf("rendered form %q of %#v contains the key separator", r, v)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, preds := range [][]string{{"p"}, {"p", "pq", "o", "p_"}} {
		for round := 0; round < 50; round++ {
			facts := make([]ast.Fact, 200+rng.Intn(200))
			for i := range facts {
				args := make([]term.Value, rng.Intn(4)) // unequal arities under one predicate
				for j := range args {
					args[j] = vals[rng.Intn(len(vals))]
				}
				facts[i] = ast.Fact{Pred: preds[rng.Intn(len(preds))], Args: args}
			}
			want := make([]string, len(facts))
			for i, f := range facts {
				want[i] = f.Key()
				if got := f.Pred + string(f.AppendArgsKey(nil)); got != want[i] {
					t.Fatalf("pred + AppendArgsKey = %q, Key() = %q", got, want[i])
				}
			}
			sort.Strings(want)
			sortCanonical(facts)
			for i, f := range facts {
				if got := f.Key(); got != want[i] {
					t.Fatalf("preds %v round %d: position %d holds %q, key order wants %q", preds, round, i, got, want[i])
				}
			}
		}
	}
}

// TestApplyPostOrderByTiesAreCanonical: orderBy breaks ties by canonical
// order, not by the order the facts were stored in, so a limit inside a tie
// group keeps the same facts whatever admission order produced the input.
func TestApplyPostOrderByTiesAreCanonical(t *testing.T) {
	posts := []ast.PostDirective{{Pred: "p", Kind: "orderBy", Arg: 1}, {Pred: "p", Kind: "limit", Arg: 3}}
	mk := func(order ...int) []ast.Fact {
		all := []ast.Fact{
			ast.NewFact("p", term.Int(1), term.String("d")),
			ast.NewFact("p", term.Int(1), term.String("b")),
			ast.NewFact("p", term.Int(0), term.String("z")),
			ast.NewFact("p", term.Int(1), term.String("a")),
			ast.NewFact("p", term.Int(1), term.String("c")),
		}
		out := make([]ast.Fact, len(order))
		for i, k := range order {
			out[i] = all[k]
		}
		return out
	}
	want := []string{"p(0,z)", "p(1,a)", "p(1,b)"}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}} {
		var got []string
		for _, f := range ApplyPost(mk(order...), posts, "p", nil) {
			got = append(got, f.String())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("storage order %v: got %v, want %v", order, got, want)
		}
	}
}

// TestApplyPostKeepExtremalAndDedup pins the group semantics the rendered
// group keys must preserve: groups are all columns but the extremal one,
// facts too short to have the column pass through, and resolved duplicates
// collapse to their first occurrence.
func TestApplyPostKeepExtremalAndDedup(t *testing.T) {
	facts := []ast.Fact{
		ast.NewFact("p", term.String("g"), term.Int(3), term.String("x")),
		ast.NewFact("p", term.String("g"), term.Int(7), term.String("x")),
		ast.NewFact("p", term.String("g"), term.Int(5), term.String("y")),
		ast.NewFact("p", term.String("g")),
		ast.NewFact("p", term.String("g"), term.Int(1), term.String("x")),
	}
	got := ApplyPost(facts, []ast.PostDirective{{Pred: "p", Kind: "keepMax", Arg: 2}}, "p", nil)
	var rendered []string
	for _, f := range got {
		rendered = append(rendered, f.String())
	}
	if want := []string{"p(g)", "p(g,5,y)", "p(g,7,x)"}; !reflect.DeepEqual(rendered, want) {
		t.Errorf("keepMax: got %v, want %v", rendered, want)
	}

	subst := NewNullSubst()
	if err := subst.Unify(term.Null(1), term.Null(2)); err != nil {
		t.Fatal(err)
	}
	got = ApplyPost([]ast.Fact{
		ast.NewFact("q", term.Null(1)), ast.NewFact("q", term.Null(2)), ast.NewFact("q", term.Null(3)),
	}, nil, "q", subst)
	if len(got) != 2 {
		t.Errorf("resolved duplicates must collapse: got %v", got)
	}
}
