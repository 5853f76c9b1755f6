package lint

import "go/ast"

// Dataflow queries over the cfg of one function body: the obligation walk
// (cancelfree, poolpair — "can the normal exit be reached without
// discharging?") and the whole-body variant (the Blocks summary). The
// must-held lock analysis lives in lockflow.go.

// reach is the one forward DFS behind those queries. Scanning
// blk.nodes[start:] and then the successor graph, it reports whether the
// normal exit block can be reached without first passing a node for which
// barrier holds.
func (g *cfg) reach(blk *cfgBlock, start int, barrier func(ast.Node) bool, seen map[*cfgBlock]bool) bool {
	for _, n := range blk.nodes[start:] {
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
			if g.reach(succ, 0, barrier, seen) {
				return true
			}
		}
	}
	return false
}

// mayReachExitWithout reports whether the cfg's normal exit block is
// reachable from the point just after node `from` without first passing a
// node for which discharged returns true. `from` must be one of the nodes
// recorded in the graph; when it is not found the answer is false (no
// claim is made, keeping the caller silent rather than wrong).
func (g *cfg) mayReachExitWithout(from ast.Node, discharged func(ast.Node) bool) bool {
	for _, blk := range g.blocks {
		for i, n := range blk.nodes {
			if n == from {
				return g.reach(blk, i+1, discharged, map[*cfgBlock]bool{})
			}
		}
	}
	return false
}

// reachesExitWithout reports whether the normal exit is reachable from the
// function's entry without passing a node for which pred holds ("does
// every normal path block?" ⇔ !reachesExitWithout(isBlocking)).
func (g *cfg) reachesExitWithout(pred func(ast.Node) bool) bool {
	return g.reach(g.entry, 0, pred, map[*cfgBlock]bool{g.entry: true})
}

// fallsOffEnd reports whether some path reaches the exit block by falling
// off the end of the body (an exit edge whose block does not end in a
// return statement). Result-ownership summaries claim nothing for such
// functions: a named-result fall-through hides what is returned.
func fallsOffEnd(g *cfg) bool {
	for _, blk := range g.blocks {
		for _, succ := range blk.succs {
			if succ != g.exit {
				continue
			}
			if len(blk.nodes) == 0 {
				return true
			}
			if _, ok := blk.nodes[len(blk.nodes)-1].(*ast.ReturnStmt); !ok {
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
