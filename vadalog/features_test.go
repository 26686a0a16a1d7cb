package vadalog

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parser"
)

// TestParseRefusesAnonymousHead: a rule with _ in its head is refused by
// Parse, with the position of the _ and the head atom named — it never
// reaches a compile or a run.
func TestParseRefusesAnonymousHead(t *testing.T) {
	_, err := Parse("p(2,5).\np(A,B) -> r(A,_).\n@output(\"r\").")
	var pe *parser.Error
	if !errors.As(err, &pe) || pe.Line != 2 || pe.Col != 15 || !strings.Contains(pe.Msg, "head atom r(A,_)") {
		t.Fatalf("Parse: %v, want a parse error at 2:15 naming head atom r(A,_)", err)
	}
}

// TestKeepMaxPostDirective: the SQL-style final aggregate keeps only the
// extremal monotonic intermediate per group (paper Sec. 5, post-
// processing directives).
func TestKeepMaxPostDirective(t *testing.T) {
	prog := MustParse(`
		keyPerson(X,P) -> psc(X,P).
		company(X) -> psc(X, P).
		control(Y,X), psc(Y,P) -> psc(X,P).
		psc(X,P), psc(Y,P), X > Y, W = mcount(P), W >= 1 -> strongLink(X,Y,W).
		@output("strongLink").
		@post("strongLink","keepMax",3).
	`)
	sess := newSession(t, prog, nil)
	sess.Load(
		MakeFact("company", Str("a")),
		MakeFact("company", Str("b")),
		MakeFact("control", Str("a"), Str("b")),
		MakeFact("keyPerson", Str("a"), Str("bob")),
		MakeFact("keyPerson", Str("b"), Str("bob")),
		MakeFact("keyPerson", Str("a"), Str("eve")),
		MakeFact("keyPerson", Str("b"), Str("eve")),
	)
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	links := sess.Output("strongLink")
	// Without keepMax the monotonic count emits W=1,2,3 intermediates;
	// with it exactly one row per (X,Y) pair remains, holding the final
	// count.
	seen := map[string]int64{}
	for _, f := range links {
		key := f.Args[0].Str() + "|" + f.Args[1].Str()
		if _, dup := seen[key]; dup {
			t.Fatalf("keepMax left multiple rows for %s: %v", key, links)
		}
		seen[key] = f.Args[2].IntVal()
	}
	if w := seen["b|a"]; w < 2 {
		t.Errorf("final shared-PSC count for (b,a): %d, want ≥2 (bob, eve, invented)", w)
	}
}

// TestParserNeverPanics fuzzes the parser with mutated fragments of valid
// programs: errors are fine, panics are not.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		`own(X,Y,W), W > 0.5 -> control(X,Y).`,
		`company(X) -> keyPerson(P, X).`,
		`p(X,Y), p(X,Z) -> Y = Z.`,
		`own(X,X,W) -> #fail.`,
		`@bind("own","csv","f.csv").`,
		`dom(*), q(X) -> r(X).`,
		`a(X), V = msum(X, <X>) -> b(V).`,
	}
	rng := rand.New(rand.NewSource(77))
	chars := []byte(`(),.->=<>!#@%"XYZabc019 _`)
	for i := 0; i < 3000; i++ {
		s := seeds[rng.Intn(len(seeds))]
		buf := []byte(s)
		for k := 0; k < 1+rng.Intn(4); k++ {
			switch rng.Intn(3) {
			case 0: // mutate
				if len(buf) > 0 {
					buf[rng.Intn(len(buf))] = chars[rng.Intn(len(chars))]
				}
			case 1: // delete
				if len(buf) > 1 {
					p := rng.Intn(len(buf))
					buf = append(buf[:p], buf[p+1:]...)
				}
			case 2: // insert
				p := rng.Intn(len(buf) + 1)
				buf = append(buf[:p], append([]byte{chars[rng.Intn(len(chars))]}, buf[p:]...)...)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", buf, r)
				}
			}()
			_, _ = Parse(string(buf))
		}()
	}
}

// TestPlanRendering renders the reasoning access plan without running.
func TestPlanRendering(t *testing.T) {
	prog := MustParse(`
		company(X) -> psc(X, P).
		psc(X,P), controls(X,Y) -> psc(Y,P).
		@output("psc").
	`)
	plan, err := MustCompile(prog, nil).Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reasoning access plan", "[warded]", "[linear]", "sink    psc", "source  controls"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}
