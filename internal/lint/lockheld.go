package lint

import "go/ast"

// NewLockheld builds the held-lock checker: no potentially blocking
// operation (the blockingOps vocabulary, lockflow.go) while a
// sync.Mutex/RWMutex is definitely held (the CFG must-analysis, so
// branch-released locks do not count). That is the micro-overlap deadlock
// class of Paper §5.4, where a completion callback blocks on a queue whose
// consumer needs the lock the callback holds. It reports in every package
// and bans the call through a function-typed struct field too, because a
// callback may block. A select with a default clause is not in the
// vocabulary: no path through it parks.
func NewLockheld() *Analyzer {
	return &Analyzer{
		Name: "lockheld",
		Doc:  "no blocking operation (send, receive, range over a channel, `select` without `default` incl. `select {}`, `Wait`/`Drain`, callback) under a held mutex, in every package",
		Run: func(pass *Pass) {
			for _, file := range pass.Pkg.Files {
				funcBodies(file, func(body *ast.BlockStmt) {
					checkHeldOps(pass, body)
				})
			}
		},
	}
}

// checkHeldOps reports the blocking operations of one function (or
// literal) body that run under a definitely-held mutex.
func checkHeldOps(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	// Cheap gate: a body with no mutex acquisition cannot hold a lock.
	hasLock := false
	topLevelStmts(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !hasLock {
			_, op := mutexOp(info, call)
			hasLock = op == opLock
		}
		return !hasLock
	})
	if !hasLock {
		return
	}
	var flow *lockFlow
	for _, op := range blockingOps(info, body) {
		if op.comm {
			continue
		}
		if flow == nil {
			flow = mustHeld(buildCFG(body, info), info)
		}
		if held := flow.heldAt(op.at); len(held) > 0 {
			pass.Reportf(op.pos, "%s while holding %s: a blocked goroutine wedges every waiter of the lock", op.desc, held.names())
		}
	}
}
