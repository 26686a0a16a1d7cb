package vadalog

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden")

// publicSurface lists the package's exported identifiers — constants,
// variables, types, functions, methods on exported types — and the fields
// of Options, one per line, sorted.
func publicSurface(t *testing.T) string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(kind, name string) { lines = append(lines, kind+" "+name) }
	for _, f := range pkgs["vadalog"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add("func", d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id := recv.(*ast.Ident); id.IsExported() {
					add("method", id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								add(strings.ToLower(d.Tok.String()), id.Name)
							}
						}
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						add("type", sp.Name.Name)
						st, ok := sp.Type.(*ast.StructType)
						if !ok || sp.Name.Name != "Options" {
							continue
						}
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								add("field", "Options."+id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestPublicSurface makes growth of the public API a reviewed diff: the
// exported identifiers and the Options fields must match the committed
// golden list (go test ./vadalog -run TestPublicSurface -update rewrites
// it).
func TestPublicSurface(t *testing.T) {
	golden := filepath.Join("testdata", "api.golden")
	got := publicSurface(t)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("public surface differs from %s (rerun with -update if intended)\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
