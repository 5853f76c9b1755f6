package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewCondguard builds the condguard analyzer, the PageBudget discipline
// as a machine-checked rule:
//
//   - sync.Cond.Wait must execute inside a `for` loop (the predicate must
//     be re-checked after every wakeup — Wait returns on Broadcast and on
//     spurious wakeups alike, so an `if` admits waiters whose condition
//     is still false), and
//   - Wait, Signal and Broadcast all require a sync.Mutex/RWMutex to be
//     definitely held at the call (must-held over the function's cfg).
//
// Signal/Broadcast under L is stricter than the sync package demands, and
// deliberately so: an unlocked Signal can fire between a waiter's
// predicate check and its park — the lost-wakeup window that stalls a
// condvar-arbitrated budget under exactly the heavy-traffic interleavings
// the roadmap targets. Holding L for the notify closes the window; the
// cost is nanoseconds on a path that just took the lock anyway.
//
// v3 makes the held requirement interprocedural through the Program's
// summaries (DESIGN.md §13): a helper whose cond op runs without a local
// lock is no longer reported at the op when the module calls it — the
// obligation propagates to its callers (RequiresHeld), and the finding
// lands at whichever call site up the chain neither holds a mutex nor has
// callers of its own to pass the duty to. Functions nobody calls (module
// roots, exported API) still report at the op itself, with the v2
// message. The Wait-inside-a-for-loop rule stays local: looping is a
// property of the waiting function, not of its callers.
func NewCondguard() *Analyzer {
	return &Analyzer{
		Name: "condguard",
		Doc:  "sync.Cond.Wait needs a predicate-rechecking for loop with L held; Signal/Broadcast require L",
		Run:  runCondguard,
	}
}

func runCondguard(pass *Pass) {
	info := pass.Pkg.Info
	// Map function bodies of this package to their interprocedural
	// summaries; literals and unkeyed declarations fall back to the local
	// v2 analysis below.
	byBody := map[*ast.BlockStmt]*FuncInfo{}
	if pass.Prog != nil {
		for _, fi := range pass.Prog.ByKey {
			if fi.Pkg == pass.Pkg && fi.Decl.Body != nil {
				byBody[fi.Decl.Body] = fi
			}
		}
	}
	for _, file := range pass.Pkg.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			// Gather the cond-method calls of this function (not of nested
			// literals, which get their own visit).
			type condCall struct {
				call *ast.CallExpr
				name string // Wait, Signal, Broadcast
			}
			var calls []condCall
			topLevelStmts(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name := condMethod(info, call); name != "" {
						calls = append(calls, condCall{call: call, name: name})
					}
				}
				return true
			})
			if len(calls) > 0 {
				par := parents(body)
				for _, cc := range calls {
					if cc.name == "Wait" && !insideForLoop(body, par, cc.call) {
						pass.Reportf(cc.call.Pos(), "sync.Cond.Wait outside a for loop; the predicate must be re-checked after every wakeup")
					}
				}
			}
			if fi, ok := byBody[body]; ok {
				reportUncoveredHeld(pass, fi)
				return
			}
			if len(calls) == 0 {
				return
			}
			flow := mustHeld(buildCFG(body, info), info)
			for _, cc := range calls {
				if len(flow.heldAt(cc.call)) == 0 {
					pass.Reportf(cc.call.Pos(), "sync.Cond.%s without holding a mutex; notify under L or a waiter can miss the wakeup", cc.name)
				}
			}
		})
	}
}

// reportUncoveredHeld emits the summary's uncovered requires-held
// operations of fi — cond ops and calls to requires-held callees with no
// mutex definitely held — but only when nothing in the module calls fi:
// for called functions the obligation has already propagated into each
// caller's own summary, and reporting here too would double up (or blame
// a helper whose callers all hold the lock correctly).
func reportUncoveredHeld(pass *Pass, fi *FuncInfo) {
	s := pass.Prog.Summaries[fi.Key]
	if s == nil || !s.RequiresHeld || pass.Prog.Callers(fi.Key) > 0 {
		return
	}
	for _, op := range s.Uncovered {
		msg := op.Desc + "; acquire the mutex before the call"
		if name, isCond := strings.CutPrefix(op.Desc, "sync.Cond."); isCond {
			msg = "sync.Cond." + name + " without holding a mutex; notify under L or a waiter can miss the wakeup"
		}
		pass.report(Finding{
			Pos:     token.Position{Filename: op.File, Line: op.Line, Column: op.Col},
			Rule:    "condguard",
			Message: msg,
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
