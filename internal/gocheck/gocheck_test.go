package gocheck

import (
	"path/filepath"
	"testing"
)

// repoRoot resolves the module root (two levels up from this package),
// the working directory for the go tool.
func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("resolve repo root: %v", err)
	}
	return abs
}

func TestMapOrderFixture(t *testing.T) {
	RunAnalyzer(t, repoRoot(t), []*Analyzer{MapOrder}, fixturePattern("maporder"))
}

func TestInternIDFixture(t *testing.T) {
	RunAnalyzer(t, repoRoot(t), []*Analyzer{InternID}, fixturePattern("internid"))
}

func TestFrozenWriteFixture(t *testing.T) {
	RunAnalyzer(t, repoRoot(t), []*Analyzer{FrozenWrite}, fixturePattern("frozenwrite"))
}

func TestCtxLoopFixture(t *testing.T) {
	RunAnalyzer(t, repoRoot(t), []*Analyzer{CtxLoop}, fixturePattern("ctxloop"))
}

func TestFloatFoldFixture(t *testing.T) {
	RunAnalyzer(t, repoRoot(t), []*Analyzer{FloatFold}, fixturePattern("floatfold"))
}

func TestPanicGuardFixture(t *testing.T) {
	RunAnalyzer(t, repoRoot(t), []*Analyzer{PanicGuard}, fixturePattern("panicguard"))
}

// TestTreeClean runs the full suite over the real tree, mirroring the
// CI vadalint step: the repository must stay free of unsuppressed
// findings. (go list's ./... pattern skips testdata trees, so the
// deliberately-dirty fixtures do not count.)
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	diags := Check(pkgs, Analyzers)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestParseSuppression(t *testing.T) {
	cases := []struct {
		comment, tag string
		reason       string
		found        bool
	}{
		{"//vadalint:ordered per-index loop", "ordered", "per-index loop", true},
		{"//vadalint:ordered", "ordered", "", true},
		{"//vadalint:ordered2 reason", "ordered", "", false},
		{"// plain comment", "ordered", "", false},
		{"//vadalint:ctxloop drains bounded queue", "ctxloop", "drains bounded queue", true},
		{"\t//vadalint:frozenwrite guarded off the shard path", "frozenwrite", "guarded off the shard path", true},
	}
	for _, c := range cases {
		reason, found := parseSuppression(c.comment, c.tag)
		if found != c.found || reason != c.reason {
			t.Errorf("parseSuppression(%q, %q) = (%q, %v), want (%q, %v)",
				c.comment, c.tag, reason, found, c.reason, c.found)
		}
	}
}
