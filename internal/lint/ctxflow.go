package lint

import (
	"go/ast"
	"go/types"
)

// NewCtxflow builds the ctxflow analyzer: inside a function that has a
// context.Context parameter in scope (directly or captured by a closure),
// context.Background() and context.TODO() must not be passed to another
// call — the caller's context must thread through instead, or cancellation
// silently stops propagating (the end-to-end discipline PR 1 established
// across every algorithm layer).
//
// Replacing a nil context parameter (ctx = context.Background()) is the
// documented default-guard idiom and stays legal: only argument positions
// are flagged. Package main and test files are exempt — entry points and
// tests are where fresh root contexts legitimately begin.
func NewCtxflow() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "`context.Background()`/`TODO()` never replaces an in-scope ctx parameter",
		Run:  runCtxflow,
	}
}

func runCtxflow(pass *Pass) {
	if pass.Pkg.Types == nil || pass.Pkg.Types.Name() == "main" {
		return
	}
	for i, file := range pass.Pkg.Files {
		if pass.Pkg.IsTest[i] {
			continue
		}
		par := parents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fresh := freshContextName(pass.Pkg.Info, call)
			if fresh == "" {
				return true
			}
			outer, ok := par[call].(*ast.CallExpr)
			if !ok || !isArgOf(outer, call) {
				return true
			}
			if name := enclosingCtxParam(pass.Pkg.Info, par, call); name != "" {
				pass.Reportf(call.Pos(), "context.%s() passed to a call while context parameter %q is in scope; thread the caller's context", fresh, name)
			}
			return true
		})
	}
}

// freshContextName returns "Background" or "TODO" when call creates a
// fresh root context, and "" otherwise.
func freshContextName(info *types.Info, call *ast.CallExpr) string {
	fn, ok := funcFor(info, call)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

// isArgOf reports whether arg is a direct argument of call.
func isArgOf(call *ast.CallExpr, arg ast.Expr) bool {
	for _, a := range call.Args {
		if a == arg {
			return true
		}
	}
	return false
}

// enclosingCtxParam walks outward from n and returns the name of the first
// context.Context parameter declared by an enclosing function literal or
// declaration (closures see the parameters they capture). Blank and
// unnamed context parameters don't count: they cannot be forwarded.
func enclosingCtxParam(info *types.Info, par map[ast.Node]ast.Node, n ast.Node) string {
	for cur := par[n]; cur != nil; cur = par[cur] {
		var ft *ast.FuncType
		switch f := cur.(type) {
		case *ast.FuncDecl:
			ft = f.Type
		case *ast.FuncLit:
			ft = f.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			tv, ok := info.Types[field.Type]
			if !ok || !isContextType(tv.Type) {
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					return name.Name
				}
			}
		}
	}
	return ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	pkg, name, ok := namedDef(t)
	return ok && pkg == "context" && name == "Context"
}
