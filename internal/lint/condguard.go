package lint

import (
	"go/ast"
	"go/types"
)

// NewCondguard builds the condguard analyzer, the PageBudget discipline
// as a machine-checked rule, checked one function body at a time:
//
//   - sync.Cond.Wait must execute inside a `for` loop (the predicate must
//     be re-checked after every wakeup — Wait returns on Broadcast and on
//     spurious wakeups alike, so an `if` admits waiters whose condition
//     is still false), and
//   - Wait, Signal and Broadcast all require a sync.Mutex/RWMutex to be
//     definitely held at the call (must-held over the function's cfg).
//
// Signal/Broadcast under L is stricter than the sync package demands.
// Cond.Wait takes its notify ticket before it unlocks L, so while the
// predicate changes only under L no notify can fall between a waiter's
// check and its park. A predicate that changes outside L (a context's
// Err, an atomic flag) opens that window: the change and an unlocked
// notify can both land after the waiter's check and before its Wait, and
// the waiter parks on a predicate that is already true. Holding L for the
// notify closes it, and the rule cannot tell the two kinds of predicate
// apart; the cost is nanoseconds on a path that just took the lock anyway.
// A helper that notifies without a lock of its own is reported at the
// notify, whatever its callers hold.
func NewCondguard() *Analyzer {
	return &Analyzer{
		Name: "condguard",
		Doc:  "`Cond.Wait` in a predicate-rechecking `for` with the lock held; `Signal`/`Broadcast` under the lock",
		Run:  runCondguard,
	}
}

func runCondguard(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			// Gather the cond-method calls of this function (not of nested
			// literals, which get their own visit).
			var calls []*ast.CallExpr
			topLevelStmts(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && condMethod(info, call) != "" {
					calls = append(calls, call)
				}
				return true
			})
			if len(calls) == 0 {
				return
			}
			par := parents(body)
			flow := mustHeld(buildCFG(body, info), info)
			for _, call := range calls {
				name := condMethod(info, call)
				if name == "Wait" && !insideForLoop(body, par, call) {
					pass.Reportf(call.Pos(), "sync.Cond.Wait outside a for loop; the predicate must be re-checked after every wakeup")
				}
				if len(flow.heldAt(call)) == 0 {
					pass.Reportf(call.Pos(), "sync.Cond.%s without holding a mutex; notify under L or a waiter can miss the wakeup", name)
				}
			}
		})
	}
}

// condMethod returns the method name when call is sync.Cond.Wait, Signal
// or Broadcast, "" otherwise.
func condMethod(info *types.Info, call *ast.CallExpr) string {
	fn, ok := funcFor(info, call)
	if !ok {
		return ""
	}
	name := fn.Name()
	if name != "Wait" && name != "Signal" && name != "Broadcast" {
		return ""
	}
	pkg, typ, isMethod := methodOn(fn)
	if !isMethod || pkg != "sync" || typ != "Cond" {
		return ""
	}
	return name
}

// insideForLoop reports whether call sits inside a ForStmt of this
// function (parent chain up to body, stopping at a nested literal — a
// goroutine spawned inside a loop is not itself looping).
func insideForLoop(body *ast.BlockStmt, par map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	for cur := par[call]; cur != nil; cur = par[cur] {
		switch cur.(type) {
		case *ast.ForStmt:
			return true
		case *ast.FuncLit:
			return false
		}
		if cur == body {
			return false
		}
	}
	return false
}
