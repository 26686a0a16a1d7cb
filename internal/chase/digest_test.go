package chase

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

	"repro/internal/parser"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.golden")

// TestChaseDigest pins the final database of every scenario: the sha256 of
// its byte-exact rendering (dbBytes) must equal the committed digest, with
// the planner on, off, and forced to its worst join order. Admission is
// canonical, so a change of scheduling, storage read path or plan choice
// that alters what is admitted, or in which order, fails here.
// go test ./internal/chase -run TestChaseDigest -update rewrites the file.
func TestChaseDigest(t *testing.T) {
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
	var out strings.Builder
	for _, sc := range scenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			prog := parser.MustParse(sc.src)
			var sums []string
			for _, setting := range planSettings {
				res, err := engineFor(t, prog, setting, Options{}).Run(context.Background(), sc.facts)
				if err != nil {
					t.Fatalf("%s: %v", setting, err)
				}
				sum := sha256.Sum256([]byte(dbBytes(res)))
				got := hex.EncodeToString(sum[:])
				sums = append(sums, got)
				if !*update && got != want[sc.name] {
					t.Errorf("%s: digest %s, want %s", setting, got, want[sc.name])
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
