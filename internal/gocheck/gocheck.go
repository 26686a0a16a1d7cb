// Package gocheck is the repository's static-analysis layer over its own
// Go source: a small, dependency-free mirror of the
// golang.org/x/tools/go/analysis model (Analyzer, Pass, positioned
// diagnostics) plus a package loader built on `go list -export` and the
// standard library's export-data importer, so the suite runs with
// nothing beyond the Go toolchain itself.
//
// The analyzers encode invariants the tests pin dynamically —
// byte-identical databases across engines, plans and admission orders —
// as compile-time checks:
//
//	maporder     range over a map on an emission/ordering-sensitive
//	             path without a sort (determinism)
//	internid     raw integers or cross-interner values flowing into
//	             interned-ID positions (ID-space discipline)
//	frozenwrite  mutating Relation/Database/Interner calls reachable
//	             from the concurrent storage pre-pass (runShard)
//	ctxloop      unbounded fixpoint/drain loops that never observe ctx
//	floatfold    float accumulation inside unsorted map iteration
//	             (bit-determinism)
//	panicguard   recover() sites lacking a justification comment
//	             (crash-isolation discipline)
//
// A finding is suppressed by an allowlist comment on the flagged line
// (or the line above, or the enclosing function's doc comment):
//
//	//vadalint:<tag> <reason>
//
// where <tag> is the analyzer's suppression tag (maporder uses
// "ordered"; the others use their analyzer name). The reason is
// mandatory: a bare tag does not suppress, and the allowlist meta-test
// fails the build on reasonless tags anywhere in the tree.
package gocheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check: a name, a one-line doc, a suppression
// tag and a Run function. Per-package analyzers receive each loaded
// target package in turn; program analyzers (Program true) run once per
// load with every target package visible, which is what whole-program
// call-graph checks need.
type Analyzer struct {
	Name string
	Doc  string
	// Tag is the suppression-comment tag (defaults to Name when empty):
	// //vadalint:<tag> <reason>.
	Tag string
	// Program marks a whole-program analyzer: Run is invoked once with
	// pass.Pkg nil and pass.Prog holding every target package.
	Program bool
	Run     func(pass *Pass) error
}

func (a *Analyzer) tag() string {
	if a.Tag != "" {
		return a.Tag
	}
	return a.Name
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the go-vet-style "file:line:col: [analyzer] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer invocation: the package under analysis (nil
// for program analyzers), the full set of loaded target packages, and
// the diagnostic sink. Suppression comments are honored inside Reportf,
// so analyzers report unconditionally.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Prog     []*Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an allowlist comment with a
// reason covers that line. A reasonless allowlist comment does not
// suppress: the diagnostic is emitted with a note demanding the reason.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(p.Pkg, nil, pos, format, args...)
}

// ReportfIn is Reportf for program analyzers, which report into
// packages other than a single pass.Pkg. doc, when non-nil, is an
// additional suppression site (the enclosing function's doc comment).
func (p *Pass) ReportfIn(pkg *Package, doc *ast.CommentGroup, pos token.Pos, format string, args ...any) {
	p.report(pkg, doc, pos, format, args...)
}

func (p *Pass) report(pkg *Package, doc *ast.CommentGroup, pos token.Pos, format string, args ...any) {
	tag := p.Analyzer.tag()
	msg := fmt.Sprintf(format, args...)
	if pkg != nil {
		reason, found := pkg.SuppressionAt(pos, tag)
		if !found && doc != nil {
			reason, found = suppressionIn(doc, tag)
		}
		if found {
			if strings.TrimSpace(reason) != "" {
				return
			}
			msg += fmt.Sprintf(" (//vadalint:%s needs a reason to suppress)", tag)
		}
	}
	var position token.Position
	if pkg != nil {
		position = pkg.Fset.Position(pos)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  msg,
	})
}

// Package is one loaded, type-checked target package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Syntax  []*ast.File
	Types   *types.Package
	Info    *types.Info

	// comments indexes every comment by file and line for allowlist
	// lookup: comments[file][line] holds the comment text on that line.
	comments map[string]map[int]string
}

// indexComments builds the per-line comment index used by SuppressionAt.
func (pkg *Package) indexComments() {
	pkg.comments = make(map[string]map[int]string)
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				m := pkg.comments[pos.Filename]
				if m == nil {
					m = make(map[int]string)
					pkg.comments[pos.Filename] = m
				}
				m[pos.Line] = c.Text
			}
		}
	}
}

// SuppressionAt reports whether an allowlist comment //vadalint:<tag>
// covers pos — on the same line or the line directly above — and
// returns its reason text.
func (pkg *Package) SuppressionAt(pos token.Pos, tag string) (reason string, found bool) {
	p := pkg.Fset.Position(pos)
	lines := pkg.comments[p.Filename]
	for _, ln := range []int{p.Line, p.Line - 1} {
		if text, ok := lines[ln]; ok {
			if r, ok := parseSuppression(text, tag); ok {
				return r, true
			}
		}
	}
	return "", false
}

// suppressionIn scans a comment group (a function's doc comment) for the
// allowlist tag.
func suppressionIn(doc *ast.CommentGroup, tag string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if r, ok := parseSuppression(c.Text, tag); ok {
			return r, true
		}
	}
	return "", false
}

// parseSuppression extracts the reason from "//vadalint:<tag> <reason>".
func parseSuppression(comment, tag string) (string, bool) {
	const prefix = "//vadalint:"
	i := strings.Index(comment, prefix)
	if i < 0 {
		return "", false
	}
	rest := comment[i+len(prefix):]
	if !strings.HasPrefix(rest, tag) {
		return "", false
	}
	rest = rest[len(tag):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // a longer tag, e.g. "ordered2"
	}
	return strings.TrimSpace(rest), true
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{
	MapOrder,
	InternID,
	FrozenWrite,
	CtxLoop,
	FloatFold,
	PanicGuard,
}

// Check runs every analyzer in suite over the loaded target packages and
// returns the diagnostics sorted by position.
func Check(pkgs []*Package, suite []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range suite {
		if a.Program {
			pass := &Pass{Analyzer: a, Prog: pkgs, diags: &diags}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{Analyzer: a.Name, Message: fmt.Sprintf("internal error: %v", err)})
			}
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: pkgs, diags: &diags}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{Analyzer: a.Name, Message: fmt.Sprintf("internal error (%s): %v", pkg.PkgPath, err)})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// inScope reports whether a package path falls under one of the path
// suffixes an analyzer watches. Packages under a testdata tree are
// always in scope, so analyzer test fixtures exercise the real checks.
func inScope(pkgPath string, suffixes []string) bool {
	if strings.Contains(pkgPath, "/testdata/") {
		return true
	}
	for _, s := range suffixes {
		if strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}
