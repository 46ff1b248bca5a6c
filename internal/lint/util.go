package lint

import (
	"go/ast"
	"go/types"
)

// callee resolves a call to the package-level function or method it
// invokes, or nil for calls through function values, conversions and
// built-ins.
func (u *Unit) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := u.Pkg.Info.Uses[id].(*types.Func)
	return fn
}
