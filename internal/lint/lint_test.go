package lint

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/parser"
)

var update = flag.Bool("update", false, "rewrite the golden .out files")

// TestGolden lints every testdata/*.vada program and compares the
// rendered diagnostics against the sibling .out golden file
// (regenerate with go test ./internal/lint -run Golden -update).
func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.vada"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".vada"), func(t *testing.T) {
			prog, err := parser.ParseFile(file)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			got := Render(Check(prog, Options{File: filepath.Base(file)}))
			golden := strings.TrimSuffix(file, ".vada") + ".out"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenJSON pins the machine-readable rendering beside the .out
// corpus: every testdata program's diagnostics are compared against the
// sibling .json golden (JSON Lines, the `vada vet -json` wire format;
// regenerate with -update). A change in these files is a change to the
// wire contract.
func TestGoldenJSON(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.vada"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".vada"), func(t *testing.T) {
			prog, err := parser.ParseFile(file)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			got := RenderJSON(Check(prog, Options{File: filepath.Base(file)}))
			golden := strings.TrimSuffix(file, ".vada") + ".json"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("json mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenCoversAllCodes keeps the golden corpus honest: every
// diagnostic code the package documents must be exercised by at least
// one testdata program.
func TestGoldenCoversAllCodes(t *testing.T) {
	all := []string{"W001", "W002", "N001", "S001", "A001", "B001", "D001", "D002", "T001", "T002", "T003"}
	seen := map[string]bool{}
	files, _ := filepath.Glob(filepath.Join("testdata", "*.vada"))
	for _, file := range files {
		prog, err := parser.ParseFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, d := range Check(prog, Options{}) {
			seen[d.Code] = true
		}
	}
	var missing []string
	for _, code := range all {
		if !seen[code] {
			missing = append(missing, code)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("codes not covered by testdata corpus: %s", strings.Join(missing, ", "))
	}
}

// TestExamplesLintClean sweeps the shipped example programs: none may
// carry an Error, and only the pinned expected warnings may appear.
func TestExamplesLintClean(t *testing.T) {
	expected := map[string][]string{
		// The strong-links join on P is harmful by design; the rewriting
		// moves it onto tag twins (paper Example 13).
		"stronglinks.vada": {"W002"},
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.vada"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, file := range files {
		base := filepath.Base(file)
		t.Run(base, func(t *testing.T) {
			prog, err := parser.ParseFile(file)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			allowed := map[string]bool{}
			for _, code := range expected[base] {
				allowed[code] = true
			}
			for _, d := range Check(prog, Options{File: base}) {
				if d.Severity == Info || allowed[d.Code] {
					continue
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
		})
	}
}

// TestPositions pins the exact file:line:col anchoring for a
// representative diagnostic of each positional shape (rule-anchored,
// argument-anchored, condition-anchored).
func TestPositions(t *testing.T) {
	src := "a(X, Y) -> b(X).\n" + // D002 on Y at 1:6
		"b(X), X > 2, X < 1 -> c(X).\n" + // T002 on the closing X < 1 at 2:14
		"@output(\"b\").\n@output(\"c\").\n"
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"D002": "1:6",
		"T002": "2:14",
	}
	for _, d := range Check(prog, Options{}) {
		pos, ok := want[d.Code]
		if !ok {
			continue
		}
		if got := d.Pos.String(); got != pos {
			t.Errorf("%s anchored at %s, want %s (%s)", d.Code, got, pos, d.Message)
		}
		delete(want, d.Code)
	}
	for code := range want {
		t.Errorf("%s not reported at all", code)
	}
}
