package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves a call expression to the function or method it
// invokes, or nil for indirect calls through variables, conversions,
// and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPkgPath reports the import path of the package declaring fn
// ("" for builtins/error.Error).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// pathIn reports whether pkgPath is exactly one of the given module
// paths OR a testdata fixture standing in for one (the analysistest
// harness loads fixtures under their real import paths, so exact
// matching covers both).
func pathIn(pkgPath string, paths ...string) bool {
	for _, p := range paths {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// lastResultIsError reports whether fn's final result is of type error.
func lastResultIsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// recvRoot returns the textual receiver expression of a method call
// ("st" for st.applyLocked(), "v.store" for v.store.applyLocked()), or ""
// for plain function calls.
func recvRoot(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return types.ExprString(sel.X)
}

// isMutexMethod reports whether fn is sync.Mutex/RWMutex/Locker
// Lock/RLock/Unlock/RUnlock, classifying acquire vs release.
func isMutexMethod(fn *types.Func) (name string, ok bool) {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	tn := recv.Type().String()
	if !strings.HasSuffix(tn, "sync.Mutex") && !strings.HasSuffix(tn, "sync.RWMutex") && !strings.HasSuffix(tn, "sync.Locker") {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), true
	}
	return "", false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
