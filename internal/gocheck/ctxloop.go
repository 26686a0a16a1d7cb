package gocheck

import (
	"go/ast"
	"go/types"
)

// CtxLoop guards cancellation responsiveness of the engines: the chase
// is not guaranteed to terminate (warded recursion with existentials can
// run for a very long time even when it does), so every potentially
// unbounded loop in the engine packages must observe its context each
// iteration. The analyzer flags condition-free `for { ... }` and
// bare-condition `for cond { ... }` loops inside functions that receive
// a context.Context when neither the condition nor the body references
// that context value.
//
// Bounded loops — `for i := 0; ...`, `for range x` — never hang on their
// own and are not flagged. A loop that genuinely cannot spin (e.g. it
// drains a bounded channel) is allowlisted with
// //vadalint:ctxloop <reason>.
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc:  "flags unbounded engine loops that never observe their context",
	Run:  runCtxLoop,
}

var ctxLoopScope = []string{
	"internal/admit",
	"internal/chase",
	"internal/pipeline",
}

func runCtxLoop(pass *Pass) error {
	if !inScope(pass.Pkg.PkgPath, ctxLoopScope) {
		return nil
	}
	for _, f := range pass.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxLoops(pass, fd.Type, fd.Body)
		}
	}
	return nil
}

// checkCtxLoops finds the context parameters of ft and flags unbounded
// loops in body that never mention any of them. Function literals are
// checked against their own signature: a goroutine body that captures
// ctx lexically still references the same objects, so captured contexts
// count too — ctxObjs accumulates down the tree.
func checkCtxLoops(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ctxObjs := contextParams(info, ft)
	var walk func(n ast.Node, ctxs map[types.Object]bool)
	walk = func(n ast.Node, ctxs map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				inner := contextParams(info, n.Type)
				for o := range ctxs {
					inner[o] = true
				}
				walk(n.Body, inner)
				return false
			case *ast.ForStmt:
				if len(ctxs) == 0 {
					return true
				}
				if n.Init != nil || n.Post != nil {
					return true // counted loop: bounded by construction
				}
				if n.Cond != nil && referencesAny(info, n.Cond, ctxs) {
					return true
				}
				if referencesAny(info, n.Body, ctxs) {
					return true
				}
				pass.Reportf(n.Pos(),
					"unbounded loop in a context-carrying function never observes ctx: check ctx.Err()/ctx.Done() each iteration, or annotate //vadalint:ctxloop <reason>")
			}
			return true
		})
	}
	walk(body, ctxObjs)
}

// contextParams collects the parameter objects of ft whose type is
// context.Context.
func contextParams(info *types.Info, ft *ast.FuncType) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	if ft.Params == nil {
		return objs
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				objs[obj] = true
			}
		}
	}
	return objs
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// referencesAny reports whether n mentions any of the given objects.
func referencesAny(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil && objs[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
