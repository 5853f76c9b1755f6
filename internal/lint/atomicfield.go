package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewAtomicfield builds the atomicfield analyzer: passing a struct
// field's address to a sync/atomic function (atomic.AddInt64(&x.n, 1),
// atomic.LoadUint32(&x.flag), …) is a finding. Such a field can also be
// read or written plainly, and a mixed plain access is a data race the
// compiler accepts and `-race` reports only if the two accesses collide
// during a test run: a plain read after a join passes every suite. The
// typed API (atomic.Int64, atomic.Bool, …) makes the plain access
// unrepresentable, and every product field already uses it. Test code is
// exempt.
func NewAtomicfield() *Analyzer {
	return &Analyzer{
		Name: "atomicfield",
		Doc:  "no field passed by address to a `sync/atomic` function: typed atomics only",
		Run:  runAtomicfield,
	}
}

func runAtomicfield(pass *Pass) {
	info := pass.Pkg.Info
	for i, file := range pass.Pkg.Files {
		if pass.Pkg.IsTest[i] {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				if fld := addressedField(info, arg); fld != nil {
					pass.Reportf(arg.Pos(), "field %s passed by address to sync/atomic; declare it with a typed atomic (atomic.Int64, …) so no plain access compiles", fld.Name())
				}
			}
			return true
		})
	}
}

// isAtomicCall reports whether call invokes a sync/atomic package-level
// function (the address-taking API; methods on atomic.Int64 etc. are safe
// by construction and irrelevant here).
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := funcFor(info, call)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil
}

// addressedField resolves a &x.f argument to the struct field it names,
// nil for any other argument.
func addressedField(info *types.Info, arg ast.Expr) *types.Var {
	ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
		if v, ok := selection.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}
