package lint

import "go/ast"

// Dataflow queries over the cfg of one function body: the whole-body
// reachability behind the Blocks summary. The must-held lock analysis
// lives in lockflow.go.

// reachesExitWithout reports whether the normal exit is reachable from the
// function's entry without passing a node for which pred holds ("does
// every normal path block?" ⇔ !reachesExitWithout(isBlocking)).
func (g *cfg) reachesExitWithout(pred func(ast.Node) bool) bool {
	return g.reach(g.entry, pred, map[*cfgBlock]bool{g.entry: true})
}

// reach is the forward DFS behind reachesExitWithout: scanning blk.nodes
// and then the successor graph, it reports whether the normal exit block
// can be reached without first passing a node for which barrier holds.
func (g *cfg) reach(blk *cfgBlock, barrier func(ast.Node) bool, seen map[*cfgBlock]bool) bool {
	for _, n := range blk.nodes {
		if barrier(n) {
			return false
		}
	}
	if blk == g.exit {
		return true
	}
	for _, succ := range blk.succs {
		if !seen[succ] {
			seen[succ] = true
			if g.reach(succ, barrier, seen) {
				return true
			}
		}
	}
	return false
}

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
