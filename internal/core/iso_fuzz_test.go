package core_test

import (
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/term"
)

// shapePool holds the values FuzzIsoShape builds facts from: every kind,
// values that render alike across kinds, both zeros, NaNs of two payloads,
// and nulls to repeat.
var shapePool = []term.Value{
	term.Int(0), term.Int(1), term.Int(5),
	term.Float(0), term.Float(math.Copysign(0, -1)), term.Float(1), term.Float(1.5),
	term.Float(math.NaN()), term.Float(math.Float64frombits(0xfff0000000000001)),
	term.String("1"), term.String("d5"), term.String("a"), term.String("{1}"),
	term.Date(1), term.Date(5), term.Bool(true), term.Bool(false),
	term.Set([]term.Value{term.Int(1)}), term.Set([]term.Value{term.Float(1)}),
	term.Null(1), term.Null(2), term.Null(3), term.Null(4),
}

// shapeFacts decodes two facts from data: a predicate and arity byte each,
// then one pool index per argument.
func shapeFacts(data []byte) (a, b ast.Fact, ok bool) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		c := data[0]
		data = data[1:]
		return c, true
	}
	fact := func() (ast.Fact, bool) {
		h, ok := next()
		if !ok {
			return ast.Fact{}, false
		}
		f := ast.Fact{Pred: []string{"p", "q"}[h>>7], Args: make([]term.Value, 1+int(h%5))}
		for i := range f.Args {
			c, ok := next()
			if !ok {
				return ast.Fact{}, false
			}
			f.Args[i] = shapePool[int(c)%len(shapePool)]
		}
		return f, true
	}
	if a, ok = fact(); !ok {
		return a, b, false
	}
	b, ok = fact()
	return a, b, ok
}

// byInterner replaces every constant of f by its interned ID — as Int(id),
// which == compares exactly — so that ast.Isomorphic, the map-based
// bijection search, decides under the store's identity.
func byInterner(in *storage.Interner, f ast.Fact) ast.Fact {
	out := ast.Fact{Pred: f.Pred, Args: make([]term.Value, len(f.Args))}
	for i, v := range f.Args {
		out.Args[i] = v
		if !v.IsNull() {
			out.Args[i] = term.Int(int64(in.Intern(v)))
		}
	}
	return out
}

func hasNaN(f ast.Fact) bool {
	for _, v := range f.Args {
		if v.Kind() == term.KindFloat && math.IsNaN(v.FloatVal()) {
			return true
		}
	}
	return false
}

// FuzzIsoShape checks the value-space comparisons of the guide structures
// against their definitions on mixed-kind facts: isomorphic facts hash
// alike, IsoEqual is ast.Isomorphic under interner identity, facts of one
// pattern hash alike, and — where == and identity agree, on NaN-free facts —
// PatternEqual is equality of the rendered ast.Fact.PatternKey.
func FuzzIsoShape(f *testing.F) {
	f.Add([]byte{1, 1, 19, 1, 5, 19})         // p(1,_) vs p(1.0,_)
	f.Add([]byte{1, 10, 19, 1, 14, 20})       // p("d5",_) vs p(d5,_)
	f.Add([]byte{2, 19, 19, 7, 2, 20, 20, 8}) // repeated nulls, NaN payloads
	f.Add([]byte{1, 3, 19, 1, 4, 20})         // 0.0 vs -0.0
	f.Add([]byte{3, 1, 1, 19, 20, 3, 2, 2, 21, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, ok := shapeFacts(data)
		if !ok {
			return
		}
		if !core.IsoEqual(a, a) || !core.PatternEqual(a, a) {
			t.Fatalf("%v must be isomorphic to and share a pattern with itself", a)
		}
		iso := core.IsoEqual(a, b)
		if iso != core.IsoEqual(b, a) {
			t.Fatalf("IsoEqual(%v, %v) is not symmetric", a, b)
		}
		if iso && core.IsoHash(a) != core.IsoHash(b) {
			t.Fatalf("isomorphic %v and %v hash apart", a, b)
		}
		in := storage.NewInterner()
		if want := ast.Isomorphic(byInterner(in, a), byInterner(in, b)); iso != want {
			t.Fatalf("IsoEqual(%v, %v) = %v, ast.Isomorphic under interner identity %v", a, b, iso, want)
		}
		pat := core.PatternEqual(a, b)
		if pat && core.PatternHash(a) != core.PatternHash(b) {
			t.Fatalf("%v and %v share a pattern but hash apart", a, b)
		}
		if !hasNaN(a) && !hasNaN(b) {
			if want := a.PatternKey() == b.PatternKey(); pat != want {
				t.Fatalf("PatternEqual(%v, %v) = %v, PatternKey equality %v", a, b, pat, want)
			}
		}
	})
}
