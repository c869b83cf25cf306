package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// unparen strips any number of enclosing parentheses (ast.Unparen needs a
// go1.22 language level; the module pins go1.21).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// exprKey renders an ident/selector chain ("sc.verdicts", "l.steps") into a
// stable textual key, or "" when the expression is anything more exotic.
// The analyzers use it to correlate assignments to the same storage without
// full alias analysis — good enough for the field/local patterns the hot
// paths actually use.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	}
	return ""
}

// calleeObject resolves the function object a call invokes, or nil for
// builtins, type conversions, and computed callees.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeName returns the bare name of the invoked function ("WritePromHeader",
// "Fprintf"), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := info.Uses[id]
	_, isb := obj.(*types.Builtin)
	return isb
}

// isPkgCall reports whether the call resolves to pkgPath.name (e.g.
// "fmt".Fprintf, "time".Sleep).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObject(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// pkgPathOfCallee returns the defining package path of the call's target,
// or "" when unresolvable (builtins, conversions, indirect calls).
func pkgPathOfCallee(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObject(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// hasDirective reports whether the doc comment group carries the given
// //pelican: directive (exact match after trimming).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// isNilComparison reports whether e compares something against nil.
func isNilComparison(e ast.Expr) bool {
	b, ok := e.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	isNil := func(x ast.Expr) bool {
		id, ok := unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return isNil(b.X) || isNil(b.Y)
}

// receiverNamedType walks to the named type of a method receiver or value,
// unwrapping pointers.
func receiverNamedType(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isSyncType reports whether t's named type is sync.<name> (Mutex, RWMutex,
// WaitGroup, Cond), looking through pointers.
func isSyncType(t types.Type, name string) bool {
	n := receiverNamedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := receiverNamedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
