package gocheck

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map on the determinism-bearing packages
// unless the loop is provably order-insensitive or follows the
// collect-then-sort idiom. Go randomizes map iteration order, so any map
// range whose body's effects depend on visit order — emitting facts,
// admitting deltas, rendering output, building diagnostics — breaks the
// byte-identical-database invariant the engines are tested under.
//
// A loop passes without annotation when either
//
//   - every effect in its body is order-insensitive: writes to maps or
//     loop-local variables, deletes, integer accumulation (+=, |=, ...;
//     floats are floatfold's domain), guarded by call-free conditions; or
//   - the body only collects keys/values into function-local slices that
//     are all sorted later in the same function (the sortedKeys idiom).
//
// Everything else needs //vadalint:ordered <reason>.
var MapOrder = &Analyzer{
	Name: "maporder",
	Tag:  "ordered",
	Doc:  "flags range over a map on an order-sensitive path without a sort",
	Run:  runMapOrder,
}

// mapOrderScope is the set of package-path suffixes maporder watches:
// the storage→eval→admit→engine emission spine plus the planner and the lint
// renderer, whose outputs are all pinned byte-identical by tests.
var mapOrderScope = []string{
	"internal/admit",
	"internal/chase",
	"internal/pipeline",
	"internal/eval",
	"internal/storage",
	"internal/planner",
	"internal/lint",
}

func runMapOrder(pass *Pass) error {
	if !inScope(pass.Pkg.PkgPath, mapOrderScope) {
		return nil
	}
	for _, f := range pass.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd.Body, fd.Body)
		}
	}
	return nil
}

// checkMapRanges walks body for map ranges; encl is the innermost
// function body, the scope searched for collect-then-sort sorting calls.
// Function literals open a new enclosing scope.
func checkMapRanges(pass *Pass, encl *ast.BlockStmt, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkMapRanges(pass, n.Body, n.Body)
			return false
		case *ast.RangeStmt:
			t := pass.Pkg.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			oc := &orderChecker{info: pass.Pkg.Info, lo: n.Body.Pos(), hi: n.Body.End()}
			if oc.insensitiveBlock(n.Body.List) {
				return true
			}
			if collectThenSorted(pass, encl, n) {
				return true
			}
			pass.Reportf(n.Pos(),
				"range over map %s is order-sensitive (Go randomizes iteration): sort a key snapshot first, or annotate //vadalint:ordered <reason>",
				exprString(pass.Pkg.Fset, n.X))
		}
		return true
	})
}

// orderChecker decides order-insensitivity of statements inside one map
// range body spanning [lo, hi).
type orderChecker struct {
	info   *types.Info
	lo, hi token.Pos
}

// local reports whether id resolves to a variable declared inside the
// loop body: writes to such variables cannot leak across iterations.
func (oc *orderChecker) local(id *ast.Ident) bool {
	obj := objOf(oc.info, id)
	return obj != nil && obj.Pos() >= oc.lo && obj.Pos() < oc.hi
}

// insensitiveBlock reports whether every statement's effect is
// independent of iteration order.
func (oc *orderChecker) insensitiveBlock(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if !oc.insensitiveStmt(st) {
			return false
		}
	}
	return true
}

func (oc *orderChecker) insensitiveStmt(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.AssignStmt:
		switch st.Tok {
		case token.ASSIGN, token.DEFINE:
			// Writes must land in maps (keyed stores commute), loop-local
			// variables or the blank identifier; values must not call
			// anything that could emit.
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if id.Name == "_" || oc.local(id) {
						continue
					}
					return false
				}
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					return false
				}
				t := oc.info.TypeOf(ix.X)
				if t == nil {
					return false
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return false
				}
			}
			for _, rhs := range st.Rhs {
				if hasCall(oc.info, rhs) {
					return false
				}
			}
			return true
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative-associative folds are order-free for integers;
			// float folds are not (see floatfold) and fail here.
			if !isIntegerType(oc.info.TypeOf(st.Lhs[0])) {
				return false
			}
			return !hasCall(oc.info, st.Rhs[0])
		}
		return false
	case *ast.IncDecStmt:
		return isIntegerType(oc.info.TypeOf(st.X))
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && isBuiltin(oc.info, id, "delete")
	case *ast.IfStmt:
		if st.Init != nil && !oc.insensitiveStmt(st.Init) {
			return false
		}
		if hasCall(oc.info, st.Cond) {
			return false
		}
		if !oc.insensitiveBlock(st.Body.List) {
			return false
		}
		if st.Else != nil {
			return oc.insensitiveStmt(st.Else)
		}
		return true
	case *ast.BlockStmt:
		return oc.insensitiveBlock(st.List)
	case *ast.ForStmt:
		// A nested counted loop is insensitive when its header is
		// call-free and its body is.
		if st.Init != nil && !oc.insensitiveStmt(st.Init) {
			return false
		}
		if st.Cond != nil && hasCall(oc.info, st.Cond) {
			return false
		}
		if st.Post != nil && !oc.insensitiveStmt(st.Post) {
			return false
		}
		return oc.insensitiveBlock(st.Body.List)
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE || st.Tok == token.BREAK
	}
	return false
}

// collectThenSorted recognizes the sortedKeys idiom: the range body only
// appends keys/values (or order-insensitive effects) into collection
// targets — function-local slices or call-free field selectors like
// g.sorted — and every target is passed to a sort call later in the same
// function body. Targets are compared by printed expression, so field
// collectors participate. Conditions guarding the appends are ignored —
// a filter does not order anything.
func collectThenSorted(pass *Pass, encl *ast.BlockStmt, rs *ast.RangeStmt) bool {
	info := pass.Pkg.Info
	fset := pass.Pkg.Fset
	oc := &orderChecker{info: info, lo: rs.Body.Pos(), hi: rs.Body.End()}
	collected := make(map[string]bool)
	ok := true
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			ok = false
			return false
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && appendsToSelf(info, fset, lhs, n.Rhs[i]) && collectTarget(oc, lhs) {
					collected[exprString(fset, lhs)] = true
					continue
				}
				if !oc.insensitiveStmt(&ast.AssignStmt{
					Lhs: []ast.Expr{lhs}, Tok: n.Tok,
					Rhs: []ast.Expr{&ast.Ident{Name: "_"}},
				}) {
					ok = false
				}
			}
			return false
		case *ast.IncDecStmt, *ast.ExprStmt:
			if !oc.insensitiveStmt(n.(ast.Stmt)) {
				ok = false
			}
			return false
		}
		return true
	})
	if !ok || len(collected) == 0 {
		return false
	}
	// Every collected target must be sorted after the loop.
	sorted := make(map[string]bool)
	ast.Inspect(encl, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel {
			return true
		}
		pkgID, isPkg := sel.X.(*ast.Ident)
		if !isPkg || (pkgID.Name != "sort" && pkgID.Name != "slices") {
			return true
		}
		sorted[exprString(fset, call.Args[0])] = true
		return true
	})
	for key := range collected {
		if !sorted[key] {
			return false
		}
	}
	return true
}

// collectTarget reports whether lhs can serve as a collection target: a
// non-loop-local identifier, or a call-free selector (a field of a
// long-lived value).
func collectTarget(oc *orderChecker, lhs ast.Expr) bool {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		return !oc.local(lhs)
	case *ast.SelectorExpr:
		return !hasCall(oc.info, lhs)
	}
	return false
}

// appendsToSelf reports whether rhs is append(lhs, ...) growing lhs.
func appendsToSelf(info *types.Info, fset *token.FileSet, lhs ast.Expr, rhs ast.Expr) bool {
	call, isCall := rhs.(*ast.CallExpr)
	if !isCall || len(call.Args) == 0 {
		return false
	}
	fn, isFn := call.Fun.(*ast.Ident)
	if !isFn || !isBuiltin(info, fn, "append") {
		return false
	}
	return exprString(fset, call.Args[0]) == exprString(fset, lhs)
}

// hasCall reports whether e contains a function call other than a type
// conversion or a pure builtin (len, cap, min, max).
func hasCall(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, isIdent := call.Fun.(*ast.Ident); isIdent {
			switch {
			case isBuiltin(info, id, "len"), isBuiltin(info, id, "cap"),
				isBuiltin(info, id, "min"), isBuiltin(info, id, "max"):
				return true
			}
		}
		if isConversion(info, call) {
			return true
		}
		found = true
		return false
	})
	return found
}

// isConversion reports whether call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isBuiltin reports whether id names the predeclared builtin name.
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	obj := info.Uses[id]
	_, isB := obj.(*types.Builtin)
	return isB
}

// isIntegerType reports whether t's underlying type is an integer.
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// objOf resolves an identifier to its object (use or definition).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// exprString renders a (small) expression back to source for messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
