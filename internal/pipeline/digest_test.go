package pipeline

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen/dbpedia"
	"repro/internal/gen/graphs"
	"repro/internal/gen/iwarded"
	"repro/internal/parser"
	"repro/internal/term"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.golden")

// digestScenarios are the programs whose final databases TestPipelineDigest
// pins: the chase digest's six, from a three-fact recursion to an iWarded
// program with harmful joins.
func digestScenarios(t *testing.T) []struct {
	name  string
	src   string
	facts []ast.Fact
} {
	t.Helper()
	ownership := graphs.ScaleFree(120, graphs.PaperParams(), 1)
	persons := dbpedia.Generate(dbpedia.Config{Companies: 60, Persons: 180,
		KeyPersonRate: 1.2, ControlRate: 0.35, Seed: 7})
	quickstart := `
		company(X) -> keyPerson(P, X).
		control(X,Y), keyPerson(P,X) -> keyPerson(P,Y).
		@output("keyPerson").
	`
	quickFacts := []ast.Fact{
		ast.NewFact("company", term.String("acme")),
		ast.NewFact("company", term.String("subco")),
		ast.NewFact("control", term.String("acme"), term.String("subco")),
		ast.NewFact("keyPerson", term.String("ada"), term.String("acme")),
	}
	cfg, ok := iwarded.Scenario("synthA")
	if !ok {
		t.Fatal("synthA scenario missing")
	}
	cfg.FactsPerRel = 30
	g, err := iwarded.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		src   string
		facts []ast.Fact
	}{
		{"quickstart", quickstart, quickFacts},
		{"companycontrol", graphs.ControlProgram, ownership.OwnFacts()},
		{"psc", dbpedia.PSCProgram, persons.All()},
		{"allpsc", dbpedia.AllPSCProgram, persons.All()},
		{"stronglinks", dbpedia.StrongLinksProgram(3), persons.All()},
		{"iwarded-synthA", g.Source, g.Facts},
	}
}

// TestPipelineDigest pins the final database of every scenario: the sha256
// of its byte-exact rendering (sessionBytes) must equal the committed
// digest, with the planner on, off, and forced to its worst join order.
// Admission is canonical, so a change of scheduling, storage read path or
// plan choice that alters what is admitted, or in which order, fails here.
// go test ./internal/pipeline -run TestPipelineDigest -update rewrites the
// file, and only when the three settings agree.
func TestPipelineDigest(t *testing.T) {
	golden := filepath.Join("testdata", "digests.golden")
	want := map[string]string{}
	if !*update {
		f, err := os.Open(golden)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
				want[name] = sum
			}
		}
	}
	settings := []struct {
		name  string
		opts  Options
		worst bool
	}{
		{"default", Options{}, false},
		{"off", Options{DisablePlanner: true}, false},
		{"worst", Options{}, true},
	}
	var out strings.Builder
	for _, sc := range digestScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			prog := parser.MustParse(sc.src)
			var sums []string
			for _, set := range settings {
				s, err := New(prog, set.opts)
				if err != nil {
					t.Fatalf("%s: %v", set.name, err)
				}
				if set.worst {
					s.Planner().Worst = true
				}
				if err := s.Run(context.Background(), sc.facts); err != nil {
					t.Fatalf("%s: %v", set.name, err)
				}
				sum := sha256.Sum256([]byte(sessionBytes(s)))
				got := hex.EncodeToString(sum[:])
				sums = append(sums, got)
				if !*update && got != want[sc.name] {
					t.Errorf("%s: digest %s, want %s", set.name, got, want[sc.name])
				}
			}
			if *update {
				if sums[1] != sums[0] || sums[2] != sums[0] {
					t.Fatalf("planner settings disagree: %v", sums)
				}
				fmt.Fprintf(&out, "%s %s\n", sc.name, sums[0])
			}
		})
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
