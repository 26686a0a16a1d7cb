package vadalog

import (
	"reflect"
	"testing"
)

// pinSrc reads deltas in every state a stored row can be in. The weights of
// a sum to 6 and only the complete sum passes T > 5, so big holds for a
// only if the delta re-delivered after each in-place supersession of
// total(a,_) binds the improved value. b's sum reaches a total the program
// already states, so b's aggregate row is retracted and must fire nothing.
// link pins an atom with a constant and a repeated variable. narrow is
// loaded with a unary, a binary and a ternary fact: the relation restrides
// and the older rows carry padding, which matches no variable.
const pinSrc = `
@output("total"). @output("big"). @output("loop"). @output("wide").
own(X,Y,W), T = msum(W,<Y>) -> total(X,T).
total(X,T), T > 5 -> big(X,T).
total("b",5).
link(X,X,"self") -> loop(X).
seed(X), narrow(X,Y) -> wide(X,Y).
`

func pinFacts() []Fact {
	own := func(x, y string, w int64) Fact { return MakeFact("own", Str(x), Str(y), Int(w)) }
	link := func(x, y, tag string) Fact { return MakeFact("link", Str(x), Str(y), Str(tag)) }
	return []Fact{
		own("a", "y1", 1), own("a", "y2", 2), own("a", "y3", 3),
		own("b", "y1", 2), own("b", "y2", 3),
		link("n1", "n1", "self"), link("n1", "n2", "self"), link("n3", "n3", "other"), link("n4", "n4", "self"),
		MakeFact("narrow", Str("u")), MakeFact("narrow", Str("v"), Str("w")), MakeFact("narrow", Str("p"), Str("q"), Str("r")),
		MakeFact("seed", Str("u")), MakeFact("seed", Str("v")),
	}
}

// TestPinnedByRowAcrossEngines runs pinSrc on the pipeline and on the chase
// with one and four match workers (whose pins read rows during a frozen
// epoch; run under -race) and requires the one answer all of them owe.
func TestPinnedByRowAcrossEngines(t *testing.T) {
	want := map[string][]string{
		"total": {`total(a,6)`, `total(b,5)`},
		"big":   {`big(a,6)`},
		"loop":  {`loop(n1)`, `loop(n4)`},
		"wide":  {`wide(v,w)`},
	}
	for name, cfg := range map[string]Options{
		"pipeline":        {Engine: EnginePipeline},
		"chase 1 worker":  {Engine: EngineChase, Parallelism: 1},
		"chase 4 workers": {Engine: EngineChase, Parallelism: 4},
	} {
		t.Run(name, func(t *testing.T) {
			s := newSession(t, MustParse(pinSrc), &cfg)
			s.Load(pinFacts()...)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			for pred, facts := range want {
				var got []string
				for _, f := range s.Output(pred) {
					got = append(got, f.String())
				}
				if !reflect.DeepEqual(got, facts) {
					t.Errorf("%s = %v, want %v", pred, got, facts)
				}
			}
		})
	}
}
