package lint

import (
	"go/ast"
	"go/types"
)

// pkgQualified resolves a selector like `rand.Intn` to the imported
// package path and member name. It returns ok=false for method calls
// and unqualified identifiers.
func pkgQualified(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// receiverNamed returns the named type of a method call's receiver
// expression (pointers dereferenced), or nil when the selector is not
// a method call on a named type.
func receiverNamed(info *types.Info, sel *ast.SelectorExpr) *types.Named {
	t := info.TypeOf(sel.X)
	if t == nil {
		return nil
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// namedIs reports whether named is defined as pkgPath.typeName.
func namedIs(named *types.Named, pkgPath, typeName string) bool {
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}

// rootIdent unwraps parens, unary, index, and field selections down to
// the leftmost identifier, e.g. `(&s.buf[i])` → `s`.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}
