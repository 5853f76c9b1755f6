package lint

import (
	"go/ast"
	"go/types"
)

// The ownership engine (DESIGN.md §11, §13). An obligation is a value a
// call hands out that the receiving function must settle — hand back, call,
// or pass on to a new owner — on every path to its normal exit. The engine
// has three parts, each existing once:
//
//   - which calls create an obligation: the summary layer's per-result
//     flags (ownedResultsOf, cancelResultsOf — intrinsics and callee
//     summaries alike), found by resultSites;
//   - what an appearance of the obligated value does with it: classifyUse,
//     the classifier the summary fixpoint runs over parameters;
//   - whether a path escapes: mayReachExitWithout over the body's CFG.
//
// poolpair and cancelfree are two registrations of the checker below; they
// differ only in the flags function, the files they look at, and the words
// of their findings.
type obligation struct {
	flags resultFlags
	// skipTests leaves _test.go files alone.
	skipTests bool
	// discarded reports an obligated result bound to `_`; nil when a discard
	// is not a finding of this rule.
	discarded func(pass *Pass, as *ast.AssignStmt, call *ast.CallExpr)
	// leaked reports that id, bound by as to an obligated result of call,
	// reaches the function's exit unsettled on some path.
	leaked func(pass *Pass, as *ast.AssignStmt, call *ast.CallExpr, id *ast.Ident)
}

// run checks every function body of the package: sites from resultSites,
// the CFG built once per body that has one, and one reachability query per
// site. Panic and os.Exit paths never reach the normal exit, so they carry
// no obligation.
func (ob *obligation) run(pass *Pass) {
	info := pass.Pkg.Info
	for i, file := range pass.Pkg.Files {
		if ob.skipTests && pass.Pkg.IsTest[i] {
			continue
		}
		funcBodies(file, func(body *ast.BlockStmt) {
			var g *cfg
			pass.Prog.resultSites(info, body, ob.flags, func(as *ast.AssignStmt, call *ast.CallExpr, id *ast.Ident) {
				if id.Name == "_" {
					if ob.discarded != nil {
						ob.discarded(pass, as, call)
					}
					return
				}
				obj := info.ObjectOf(id) // Defs for `:=`, Uses when `=` rebinds
				if obj == nil {
					return
				}
				if g == nil {
					g = buildCFG(body, info)
				}
				settled := func(n ast.Node) bool { return dischargesObligation(pass.Prog, info, n, obj) }
				if g.mayReachExitWithout(as, settled) {
					ob.leaked(pass, as, call, id)
				}
			})
		})
	}
}

// dischargesObligation reports whether node n uses obj *as a value* — bare,
// not through a field selector — in a position that moves or settles
// ownership: returned, assigned away, sent, invoked, passed to a call that
// releases or consumes it, or captured by any function literal (the closure
// owns it now, deferred or not). `c.Recs` and `c.FirstPage = 0` are
// reads/writes through the value and transfer nothing; neither does passing
// it to an in-module callee whose summary proves a pure borrow, or invoking
// a borrowing method on it. Unknown callees (stdlib, interface dispatch,
// function values) count as transfers, so the tree gains no false
// positives.
func dischargesObligation(prog *Program, info *types.Info, n ast.Node, obj types.Object) bool {
	var f ParamFacts
	var stack []ast.Node
	litDepth := 0
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			if _, isLit := stack[len(stack)-1].(*ast.FuncLit); isLit {
				litDepth--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, x)
		switch x := x.(type) {
		case *ast.FuncLit:
			litDepth++
		case *ast.Ident:
			if info.Uses[x] != obj {
				break
			}
			if litDepth > 0 {
				f.Escapes = true
			} else {
				prog.classifyUse(info, stack, x, &f)
			}
		}
		return true
	})
	return !f.borrows()
}

// calleeName names a flagged call's target for a message: the summary key
// of an in-program callee, "pkg.Func" for an intrinsic (both kinds resolve
// through funcFor, or the call would not have been flagged).
func (p *Program) calleeName(info *types.Info, call *ast.CallExpr) string {
	if key, ok := p.staticCallee(info, call); ok {
		return key
	}
	fn, _ := funcFor(info, call)
	return fn.Pkg().Name() + "." + fn.Name()
}
