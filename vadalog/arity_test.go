package vadalog

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// aritySrc fixes narrow's arity at two: a ternary narrow fact is refused
// where it enters, so it can never join seed on its first column.
const aritySrc = `seed(X), narrow(X,Y) -> wide(X,Y). @output("wide").`

// drive runs one drive of s, through Run or by pulling wide to exhaustion.
func drive(s *Session, pulled bool) error {
	if !pulled {
		return s.Run()
	}
	for _, err := range s.Facts(context.Background(), "wide") {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestArityContract: a predicate has the arity the compile gives it. A
// loaded fact or a bound source's row of another arity fails the drive that
// loads it with ErrArity and is not stored, and every later drive refuses it
// again — on both engines, however the facts are spread over drives and
// whether the drive is Run or a pull.
func TestArityContract(t *testing.T) {
	seed := MakeFact("seed", Str("p"))
	good := MakeFact("narrow", Str("v"), Str("w"))
	bad := MakeFact("narrow", Str("p"), Str("q"), Str("r"))
	ragged := filepath.Join(t.TempDir(), "narrow.csv")
	if err := os.WriteFile(ragged, []byte("v,w\np,q,r\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Each case is a program and a sequence of drives: the facts staged
	// before each, and whether that drive must fail.
	type step struct {
		load []Fact
		fail bool
	}
	cases := map[string]struct {
		src   string
		steps []step
	}{
		"one drive":                {aritySrc, []step{{[]Fact{seed, good, bad}, true}}},
		"one drive, ternary first": {aritySrc, []step{{[]Fact{bad, good, seed}, true}}},
		"two drives, narrow first": {aritySrc, []step{{[]Fact{good, bad}, true}, {[]Fact{seed}, true}}},
		"two drives, seed first":   {aritySrc, []step{{[]Fact{seed}, false}, {[]Fact{good, bad}, true}}},
		"ragged csv through @bind": {`@bind("narrow","csv","` + ragged + `"). seed("p"). ` + aritySrc, []step{{nil, true}, {nil, true}}},
	}
	for _, eng := range []Engine{EnginePipeline, EngineChase} {
		for name, tc := range cases {
			for _, pulled := range []bool{false, true} {
				s := newSession(t, MustParse(tc.src), &Options{Engine: eng})
				for k, st := range tc.steps {
					s.Load(st.load...)
					err := drive(s, pulled)
					if st.fail != errors.Is(err, ErrArity) || (!st.fail && err != nil) {
						t.Errorf("engine %d, %s, pulled %v, drive %d: %v, want ErrArity %v", eng, name, pulled, k, err, st.fail)
					}
				}
				for _, f := range s.Output("narrow") {
					if len(f.Args) != 2 {
						t.Errorf("engine %d, %s, pulled %v: stored %v", eng, name, pulled, f)
					}
				}
				if w := s.Output("wide"); len(w) != 0 {
					t.Errorf("engine %d, %s, pulled %v: wide = %v, want nothing", eng, name, pulled, w)
				}
			}
		}
	}
}
