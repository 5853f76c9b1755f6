package lint

import "go/ast"

// Traversal helpers shared by the per-function analyses. The must-held
// lock analysis lives in lockflow.go.

// funcBodies visits every function declaration and function literal in
// file, handing each body to visit exactly once. Literals nested inside a
// body are visited on their own, so a per-function analysis never sees
// the same statement twice.
func funcBodies(file *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch f := n.(type) {
		case *ast.FuncDecl:
			if f.Body != nil {
				visit(f.Body)
			}
		case *ast.FuncLit:
			if f.Body != nil {
				visit(f.Body)
			}
		}
		return true
	})
}

// topLevelStmts walks the statements of body that belong to this function
// itself, invoking visit on each node encountered, without descending
// into nested function literals.
func topLevelStmts(body *ast.BlockStmt, visit func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n == nil || n == body {
			return true
		}
		return visit(n)
	})
}
