package gocheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatFold guards bit-level determinism of aggregate evaluation: IEEE
// float addition and multiplication are not associative, so folding
// floats in Go's randomized map iteration order yields run-to-run
// different bits — which the byte-identical-database invariant turns
// into test flakes and cross-engine divergence. The monotonic aggregate
// layer sorts contributions before folding for exactly this reason.
//
// The analyzer flags float accumulation (s += x, s = s + x, s *= x, ...)
// into variables declared outside the loop, inside any `range` over a
// map in the watched packages. Fixes: fold over a sorted snapshot, or
// accumulate integers/use an order-free reduction (min/max are safe).
// Deliberate approximate folds are allowlisted with
// //vadalint:floatfold <reason>.
var FloatFold = &Analyzer{
	Name: "floatfold",
	Doc:  "flags float accumulation inside unsorted map iteration",
	Run:  runFloatFold,
}

var floatFoldScope = []string{
	"internal/admit",
	"internal/chase",
	"internal/pipeline",
	"internal/eval",
	"internal/storage",
	"internal/planner",
}

func runFloatFold(pass *Pass) error {
	if !inScope(pass.Pkg.PkgPath, floatFoldScope) {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkFloatFolds(pass, rs)
			return true
		})
	}
	return nil
}

// checkFloatFolds flags float accumulations inside rs's body whose
// target is declared outside the loop body (loop-local accumulators
// reset each iteration and cannot carry order dependence).
func checkFloatFolds(pass *Pass, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	oc := &orderChecker{info: info, lo: rs.Body.Pos(), hi: rs.Body.End()}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if len(as.Lhs) == 1 && floatAccumTarget(oc, as.Lhs[0]) {
				pass.Reportf(as.Pos(),
					"float accumulation into %s inside map iteration is order-dependent (IEEE addition is not associative): fold over a sorted snapshot, or annotate //vadalint:floatfold <reason>",
					exprString(pass.Pkg.Fset, as.Lhs[0]))
			}
		case token.ASSIGN:
			// s = s + x / s = x + s (and -, *, /) spelled out.
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) || !floatAccumTarget(oc, lhs) {
					continue
				}
				be, isBin := as.Rhs[i].(*ast.BinaryExpr)
				if !isBin {
					continue
				}
				switch be.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
				default:
					continue
				}
				if sameObjectExpr(info, lhs, be.X) || sameObjectExpr(info, lhs, be.Y) {
					pass.Reportf(as.Pos(),
						"float accumulation into %s inside map iteration is order-dependent (IEEE addition is not associative): fold over a sorted snapshot, or annotate //vadalint:floatfold <reason>",
						exprString(pass.Pkg.Fset, lhs))
				}
			}
		}
		return true
	})
}

// floatAccumTarget reports whether lhs is a float-typed target declared
// outside the loop body.
func floatAccumTarget(oc *orderChecker, lhs ast.Expr) bool {
	t := oc.info.TypeOf(lhs)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return false
	}
	if id, isIdent := lhs.(*ast.Ident); isIdent {
		return !oc.local(id)
	}
	// Field/index targets live beyond the iteration by construction.
	return true
}

// sameObjectExpr reports whether a and b are identifiers resolving to
// the same object.
func sameObjectExpr(info *types.Info, a, b ast.Expr) bool {
	ai, ok := a.(*ast.Ident)
	if !ok {
		return false
	}
	bi, ok := b.(*ast.Ident)
	if !ok {
		return false
	}
	ao, bo := objOf(info, ai), objOf(info, bi)
	return ao != nil && ao == bo
}
