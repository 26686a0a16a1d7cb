package gocheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// InternID guards the ID-space discipline of the interned-term storage
// layer: interned IDs are dense per-Interner handles, so
//
//   - a raw integer literal or named constant (other than the reserved
//     invalid ID 0) passed where a function expects an interned ID is
//     meaningless,
//   - arithmetic on IDs (id+1, id*2, ...) never denotes a value, and
//   - an ID obtained from one Interner compared against — or decoded
//     through — a different Interner silently yields the wrong value.
//
// A parameter is ID-typed when its type is (or is derived from) uint32
// and it is named "id" or carries an "ID" suffix, the storage layer's
// naming convention. Cross-interner tracking is per-function and
// syntactic: IDs are attributed to the printed receiver expression of
// the Intern/IDOf call that produced them.
var InternID = &Analyzer{
	Name: "internid",
	Doc:  "flags raw integers, ID arithmetic and cross-interner ID flow",
	Run:  runInternID,
}

var internIDScope = []string{
	"internal/admit",
	"internal/chase",
	"internal/pipeline",
	"internal/eval",
	"internal/storage",
	"internal/planner",
}

func runInternID(pass *Pass) error {
	if !inScope(pass.Pkg.PkgPath, internIDScope) {
		return nil
	}
	for _, f := range pass.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkInternID(pass, fd)
		}
	}
	return nil
}

func checkInternID(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	// origins maps local ID variables to the printed receiver of the
	// Intern/IDOf call that produced them.
	origins := make(map[types.Object]string)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		key, isID := internerCallKey(pass, info, as.Rhs[0])
		if !isID {
			return true
		}
		// x := in.Intern(v)  or  x, ok := in.IDOf(v)
		if id, isIdent := as.Lhs[0].(*ast.Ident); isIdent {
			if obj := objOf(info, id); obj != nil {
				origins[obj] = key
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			checkCrossCompare(pass, info, origins, n)
		case *ast.CallExpr:
			checkIDArgs(pass, info, n)
			checkCrossDecode(pass, info, origins, n)
		}
		return true
	})
}

// internerCallKey recognizes in.Intern(v) / in.IDOf(v) expressions and
// returns a key identifying the interner receiver.
func internerCallKey(pass *Pass, info *types.Info, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Intern" && sel.Sel.Name != "IDOf" {
		return "", false
	}
	if !isInternerType(info.TypeOf(sel.X)) {
		return "", false
	}
	return internerKey(pass, sel.X), true
}

// internerKey renders the receiver expression, canonicalizing the
// ".Interner()" accessor away so db and db.Interner() share a key.
func internerKey(pass *Pass, recv ast.Expr) string {
	s := exprString(pass.Pkg.Fset, recv)
	s = strings.TrimSuffix(s, ".Interner()")
	return s
}

// isInternerType reports whether t (possibly a pointer) is a named type
// called Interner declared in a storage package (or a testdata fixture).
func isInternerType(t types.Type) bool {
	return isNamedIn(t, "Interner", "storage")
}

// isNamedIn reports whether t (possibly behind a pointer) is a named
// type with the given name whose package path ends in pkgSuffix or lies
// under a testdata tree.
func isNamedIn(t types.Type, name, pkgSuffix string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != name || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return strings.HasSuffix(path, "/"+pkgSuffix) || path == pkgSuffix ||
		strings.Contains(path, "/testdata/")
}

// checkCrossCompare flags comparisons between IDs attributed to
// different interner receivers.
func checkCrossCompare(pass *Pass, info *types.Info, origins map[types.Object]string, be *ast.BinaryExpr) {
	switch be.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return
	}
	lk, lok := exprOrigin(pass, info, origins, be.X)
	rk, rok := exprOrigin(pass, info, origins, be.Y)
	if lok && rok && lk != rk {
		pass.Reportf(be.OpPos,
			"comparing interned IDs from different interners (%s vs %s): IDs are only meaningful within one Interner", lk, rk)
	}
}

// checkCrossDecode flags in.ValueOf(x) where x is an ID attributed to a
// different interner receiver.
func checkCrossDecode(pass *Pass, info *types.Info, origins map[types.Object]string, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ValueOf" || len(call.Args) != 1 {
		return
	}
	if !isInternerType(info.TypeOf(sel.X)) {
		return
	}
	recvKey := internerKey(pass, sel.X)
	if argKey, known := exprOrigin(pass, info, origins, call.Args[0]); known && argKey != recvKey {
		pass.Reportf(call.Args[0].Pos(),
			"decoding an ID interned by %s through %s: the ID spaces are unrelated", argKey, recvKey)
	}
}

// exprOrigin attributes an expression to the interner that produced it:
// a tracked local variable, or directly a nested Intern/IDOf call.
func exprOrigin(pass *Pass, info *types.Info, origins map[types.Object]string, e ast.Expr) (string, bool) {
	if id, ok := e.(*ast.Ident); ok {
		if obj := objOf(info, id); obj != nil {
			if key, tracked := origins[obj]; tracked {
				return key, true
			}
		}
		return "", false
	}
	return internerCallKey(pass, info, e)
}

// checkIDArgs flags raw integer constants (except the invalid ID 0) and
// arithmetic expressions passed as interned-ID parameters.
func checkIDArgs(pass *Pass, info *types.Info, call *ast.CallExpr) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			break
		}
		p := params.At(pi)
		if !isIDParam(p) {
			continue
		}
		if tv, has := info.Types[arg]; has && tv.Value != nil && tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(tv.Value); !exact || v != 0 {
				pass.Reportf(arg.Pos(),
					"raw integer %s passed as interned-ID parameter %q of %s: IDs come from an Interner (0 is the only valid literal, the reserved invalid ID)",
					tv.Value, p.Name(), fn.Name())
			}
			continue
		}
		if be, isBin := arg.(*ast.BinaryExpr); isBin && isArithOp(be.Op) {
			pass.Reportf(arg.Pos(),
				"arithmetic expression passed as interned-ID parameter %q of %s: ID arithmetic never denotes a value",
				p.Name(), fn.Name())
		}
	}
}

// calleeFunc resolves the statically called function/method of call.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isIDParam reports whether p follows the interned-ID parameter
// convention: uint32-based and named "id" or suffixed "ID".
func isIDParam(p *types.Var) bool {
	b, ok := p.Type().Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Uint32 {
		return false
	}
	return p.Name() == "id" || strings.HasSuffix(p.Name(), "ID")
}

func isArithOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
		return true
	}
	return false
}
