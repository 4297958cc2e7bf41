// Package analyzers hosts the sdtwlint analyzer suite: small,
// dependency-free static analyses that mechanically enforce the repo's
// hand-maintained invariants (kernel bit-identity, nil-safe contexts,
// config-struct construction, sentinel-error discipline, hot-path
// allocation hygiene, and the no-DP-under-lock rule).
//
// The framework below is a deliberately minimal re-implementation of the
// go/analysis Analyzer/Pass shape on top of the standard library only, so
// the module stays free of external dependencies. cmd/sdtwlint drives
// the analyzers through the `go vet -vettool` protocol.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static analysis: a name, a doc string shown in
// -flags/-help output, and a Run function applied once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is a single finding at a position. Category is filled in by
// the driver with the reporting analyzer's name.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full sdtwlint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Fmaround,
		Nilctx,
		Paramlit,
		Errlint,
		Hotalloc,
		Lockheld,
	}
}

// ---- shared helpers ----

// basePath strips the " [pkg.test]" suffix the go command appends to the
// import path of in-package test variants, so path comparisons treat the
// test variant as the package it shadows.
func basePath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// unparen removes any enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// inTestFile reports whether pos falls in a _test.go file.
func (p *Pass) inTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// isFloat64 reports whether e's type is (an alias of) float64.
func (p *Pass) isFloat64(e ast.Expr) bool {
	t := p.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// isConstExpr reports whether e folds to a compile-time constant.
func (p *Pass) isConstExpr(e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// calleeObj resolves the object a call expression invokes, looking
// through parentheses. Returns nil for type conversions, builtins bound
// to non-idents, and anything else that doesn't resolve to an object.
func (p *Pass) calleeObj(call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return p.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	return basePath(f.Pkg().Path()) == pkgPath && f.Name() == name
}

// hasDirective reports whether doc contains the given //-style directive
// (e.g. "sdtw:hotpath") as its own comment line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if strings.TrimSpace(text) == directive {
			return true
		}
	}
	return false
}

// namedOf returns the *types.Named behind t (looking through one level
// of pointer), or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// exprString renders a (small) expression for use as a map key or in a
// diagnostic message. It is positional-information-free, so two
// syntactically identical expressions compare equal.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = exprString(a)
		}
		return exprString(e.Fun) + "(" + strings.Join(args, ", ") + ")"
	case *ast.BasicLit:
		return e.Value
	case *ast.BinaryExpr:
		return exprString(e.X) + " " + e.Op.String() + " " + exprString(e.Y)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.SliceExpr:
		s := exprString(e.X) + "["
		if e.Low != nil {
			s += exprString(e.Low)
		}
		s += ":"
		if e.High != nil {
			s += exprString(e.High)
		}
		return s + "]"
	default:
		return fmt.Sprintf("%T", e)
	}
}
