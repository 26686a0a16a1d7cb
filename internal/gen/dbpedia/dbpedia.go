// Package dbpedia generates the synthetic substitute for the DBpedia
// company/person datasets of paper Sec. 6.3 (the dump itself is not
// redistributable offline). The generator reproduces the structural
// properties the PSC/StrongLink scenarios depend on: ~67K companies
// forming shallow control forests (dbo:parentCompany), a large person
// pool (~1.5M), and skewed key-person attachment (dbo:keyPerson), at
// configurable scales.
package dbpedia

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/term"
)

// Config scales the synthetic dataset.
type Config struct {
	Companies int
	Persons   int
	// KeyPersonRate is the expected number of key persons per company.
	KeyPersonRate float64
	// ControlRate is the fraction of companies with a parent company.
	ControlRate float64
	Seed        int64
}

// Dataset holds the generated facts.
type Dataset struct {
	Companies  []ast.Fact // company(c)
	Controls   []ast.Fact // control(parent, child)
	KeyPersons []ast.Fact // keyPerson(company, person)
	Persons    []ast.Fact // person(p)
}

// All concatenates every relation.
func (d *Dataset) All() []ast.Fact {
	out := make([]ast.Fact, 0, len(d.Companies)+len(d.Controls)+len(d.KeyPersons)+len(d.Persons))
	out = append(out, d.Companies...)
	out = append(out, d.Controls...)
	out = append(out, d.KeyPersons...)
	out = append(out, d.Persons...)
	return out
}

// Size returns the total number of facts.
func (d *Dataset) Size() int {
	return len(d.Companies) + len(d.Controls) + len(d.KeyPersons) + len(d.Persons)
}

func company(i int) term.Value { return term.String(fmt.Sprintf("co%d", i)) }

func person(i int) term.Value { return term.String(fmt.Sprintf("p%d", i)) }

// Generate builds the dataset. Control edges form a forest of shallow
// trees (parents have smaller ids), matching the short corporate chains
// of the real extraction; key persons are drawn with a skew so that a few
// persons serve on many boards (what makes StrongLink dense).
func Generate(cfg Config) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{}
	for i := 0; i < cfg.Companies; i++ {
		d.Companies = append(d.Companies, ast.NewFact("company", company(i)))
	}
	for i := 1; i < cfg.Companies; i++ {
		if rng.Float64() >= cfg.ControlRate {
			continue
		}
		// Parent skewed toward low ids: hubs control many subsidiaries,
		// chains stay shallow (expected depth O(log) with this skew).
		parent := int(float64(i) * rng.Float64() * rng.Float64())
		d.Controls = append(d.Controls, ast.NewFact("control", company(parent), company(i)))
	}
	if cfg.Persons > 0 {
		for i := 0; i < cfg.Persons; i++ {
			d.Persons = append(d.Persons, ast.NewFact("person", person(i)))
		}
		expected := float64(cfg.Companies) * cfg.KeyPersonRate
		for n := 0; n < int(expected); n++ {
			c := rng.Intn(cfg.Companies)
			// Zipf-ish person choice: square the uniform draw so low-id
			// persons appear on many boards.
			p := int(float64(cfg.Persons) * rng.Float64() * rng.Float64())
			if p >= cfg.Persons {
				p = cfg.Persons - 1
			}
			d.KeyPersons = append(d.KeyPersons, ast.NewFact("keyPerson", company(c), person(p)))
		}
	}
	return d
}

// PSCProgram is Example 11: persons with significant control, i.e. key
// persons propagated along the control relation.
const PSCProgram = `
	keyPerson(X,P), person(P) -> psc(X,P).
	control(Y,X), psc(Y,P) -> psc(X,P).
	@output("psc").
`

// AllPSCProgram is Example 12: the PSCs of each company grouped into one
// set with monotonic union.
const AllPSCProgram = `
	keyPerson(X,P), person(P), J = munion(P) -> pscSet(X,J).
	control(Y,X), pscSet(Y,S), J = munion(S) -> pscSet(X,J).
	@output("pscSet").
`

// StrongLinksProgram is Example 13 parameterized by the threshold N: two
// companies sharing more than N persons of significant control (including
// invented ones) are strongly linked.
func StrongLinksProgram(n int) string {
	return fmt.Sprintf(`
		keyPerson(X,P) -> psc(X,P).
		company(X) -> psc(X, P).
		control(Y,X), psc(Y,P) -> psc(X,P).
		psc(X,P), psc(Y,P), X > Y, W = mcount(P), W >= %d -> strongLink(X,Y,W).
		@output("strongLink").
	`, n)
}

// SpecStrongLinksProgram restricts strong links to one target company
// (scenario SpecStrongLinks; the paper uses Premier Foods).
func SpecStrongLinksProgram(companyID, n int) string {
	c := company(companyID)
	return fmt.Sprintf(`
		keyPerson(X,P) -> psc(X,P).
		company(X) -> psc(X, P).
		control(Y,X), psc(Y,P) -> psc(X,P).
		psc(%[1]s,P), psc(Y,P), %[1]s != Y, W = mcount(P), W >= %[2]d -> strongLink(%[1]s,Y,W).
		@output("strongLink").
	`, c, n)
}
