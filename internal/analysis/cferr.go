package analysis

import (
	"go/ast"
	"go/types"
)

// CFErr reports CF command results whose error is silently dropped: a
// call to a method or function of internal/cf or internal/cfrm whose
// last result is an error, used as a bare statement (or go/defer).
// Every CF command can return ErrCFDown; ignoring it skips the
// failover/rebuild path and turns a recoverable outage into silent
// data loss. A deliberate drop must be spelled `_ = cmd(...)` so the
// decision is visible in review.
var CFErr = &Analyzer{
	Name: "cferr",
	Doc:  "forbid silently dropped errors from cf/cfrm command calls",
	Run:  runCFErr,
}

func cfErrTargetPkg(path string) bool {
	return path == "sysplex/internal/cf" || path == "sysplex/internal/cfrm"
}

func runCFErr(pass *Pass) error {
	check := func(call *ast.CallExpr, how string) {
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || !cfErrTargetPkg(fn.Pkg().Path()) {
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Results().Len() == 0 {
			return
		}
		last := sig.Results().At(sig.Results().Len() - 1).Type()
		if !isErrorType(last) {
			return
		}
		pass.Reportf(call.Pos(),
			"%s drops the error from %s.%s: a CF command error (e.g. ErrCFDown) must be handled or explicitly discarded with `_ =`",
			how, fn.Pkg().Name(), fn.Name())
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					check(call, "statement")
				}
			case *ast.GoStmt:
				check(s.Call, "go statement")
			case *ast.DeferStmt:
				check(s.Call, "defer statement")
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves a call's callee to its function or method object
// (nil for indirect calls through function values and conversions).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return iface.NumMethods() == 1 && iface.Method(0).Name() == "Error" &&
		types.Identical(t, types.Universe.Lookup("error").Type())
}
