package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// lockCheck is the held-lock checker: no potentially blocking operation (the
// blockingOps vocabulary, lockflow.go) while a sync.Mutex/RWMutex is
// definitely held (the CFG must-analysis, so branch-released locks do not
// count). That is the micro-overlap deadlock class of Paper §5.4, where a
// completion callback blocks on a queue whose consumer needs the lock the
// callback holds. One checker is registered twice and the package path
// picks which registration speaks, so every site gets exactly one finding:
//
//   - inside the strict (overlap-critical) packages it reports as lockheld
//     with no discharges, and additionally bans any select and any call
//     through a function-typed struct field (callbacks may block);
//   - everywhere else it reports as chanflow with the discharges that make
//     the rule livable at module scale: a select with a default clause
//     never blocks, and a send on a channel provably buffered (every
//     binding is `make(chan T, N)` with constant N ≥ 1, traced through the
//     package's assignments) is accepted when the bounded-occupancy
//     argument holds — the package's send sites on that channel number at
//     most N and the flagged send is not inside a loop.
func lockCheck(strict bool, strictPkgs []string) func(*Pass) {
	return func(pass *Pass) {
		if anyPathWithin(pass.Pkg.Path, strictPkgs) != strict {
			return
		}
		for _, file := range pass.Pkg.Files {
			funcBodies(file, func(body *ast.BlockStmt) {
				checkHeldOps(pass, body, strict)
			})
		}
	}
}

// NewLockheld builds the strict registration of the held-lock checker: it
// reports in the packages within strictPkgs and nowhere else.
func NewLockheld(strictPkgs []string) *Analyzer {
	return &Analyzer{
		Name: "lockheld",
		Doc:  "no blocking operation (send/recv/range/select/Wait/Drain/callback) while holding a mutex",
		Run:  lockCheck(true, strictPkgs),
	}
}

// NewChanflow builds the module-wide registration of the held-lock
// checker: it reports everywhere except the packages within strictPkgs,
// which lockheld owns.
func NewChanflow(strictPkgs []string) *Analyzer {
	return &Analyzer{
		Name: "chanflow",
		Doc:  "no blocking channel op (send/recv/range/select {}), Wait/Drain, or always-blocking call under a held mutex, unless select-default or provably-buffered",
		Run:  lockCheck(false, strictPkgs),
	}
}

// checkHeldOps reports the blocking operations of one function (or
// literal) body that run under a definitely-held mutex.
func checkHeldOps(pass *Pass, body *ast.BlockStmt, strict bool) {
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
	var par map[ast.Node]ast.Node // built for the first send that needs the loop test
	for _, op := range pass.Prog.blockingOps(info, body) {
		if op.comm || (op.strictOnly && !strict) {
			continue
		}
		if flow == nil {
			flow = mustHeld(buildCFG(body, info), info)
		}
		held := flow.heldAt(op.at)
		if len(held) == 0 {
			continue
		}
		desc := op.desc
		if !strict {
			if send, ok := op.node.(*ast.SendStmt); ok {
				if par == nil {
					par = parents(body)
				}
				if bufferedDischarge(pass, par, send) {
					continue
				}
			}
			if call, ok := op.node.(*ast.CallExpr); ok && isWaitGroupMethod(info, call, "Wait") {
				desc = "sync.WaitGroup.Wait" // the phrasing chanflow's fixtures pin
			}
		}
		pass.Reportf(op.pos, "%s while holding %s: a blocked goroutine wedges every waiter of the lock", desc, held.names())
	}
}

// bufferedDischarge reports whether send is discharged by the
// provably-buffered rule: the channel resolves to a variable or field
// whose every binding in this package is make(chan T, N) with one
// constant N ≥ 1, the package's send sites on it number ≤ N, and this
// send is not inside a loop.
func bufferedDischarge(pass *Pass, par map[ast.Node]ast.Node, send *ast.SendStmt) bool {
	obj := chanObject(pass.Pkg.Info, send.Chan)
	if obj == nil {
		return false
	}
	capN, ok := chanMakeCap(pass.Pkg.Info, pass.Pkg.Files, obj)
	if !ok {
		return false
	}
	if inLoop(par, send) {
		return false
	}
	sends, looped := packageSends(pass.Pkg.Info, pass.Pkg.Files, obj)
	return !looped && int64(sends) <= capN
}

// chanObject resolves a channel expression to the variable or field it
// names, nil when it is anything more dynamic.
func chanObject(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// chanMakeCap traces every binding of obj across the package's files:
// assignments, value specs, and composite-literal fields. It succeeds
// only when at least one binding exists, every binding is a make with the
// same constant capacity, and that capacity is ≥ 1.
func chanMakeCap(info *types.Info, files []*ast.File, obj types.Object) (int64, bool) {
	capN := int64(-1)
	sound := true
	record := func(rhs ast.Expr) {
		c, ok := makeChanCap(info, rhs)
		if !ok {
			sound = false
			return
		}
		if capN == -1 {
			capN = c
		} else if capN != c {
			sound = false
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					for _, lhs := range st.Lhs {
						if bindsObject(info, lhs, obj) {
							sound = false // tuple assignment: can't trace the make
						}
					}
					return true
				}
				for i, lhs := range st.Lhs {
					if bindsObject(info, lhs, obj) {
						record(st.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					o := info.Defs[name]
					if o != obj {
						continue
					}
					if i < len(st.Values) {
						record(st.Values[i])
					} else if len(st.Values) != 0 {
						sound = false
					}
					// A bare `var ch chan T` binds nil; nil channels block
					// forever, but a later make assignment is the binding that
					// counts and is recorded when seen.
				}
			case *ast.KeyValueExpr:
				if id, ok := st.Key.(*ast.Ident); ok && info.Uses[id] == obj {
					record(st.Value)
				}
			}
			return true
		})
	}
	return capN, sound && capN >= 1
}

// bindsObject reports whether assignment target lhs names obj.
func bindsObject(info *types.Info, lhs ast.Expr, obj types.Object) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if info.Defs[x] == obj || info.Uses[x] == obj {
			return true
		}
	case *ast.SelectorExpr:
		return info.Uses[x.Sel] == obj
	}
	return false
}

// makeChanCap matches `make(chan T, N)` with constant N, returning N.
func makeChanCap(info *types.Info, e ast.Expr) (int64, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return 0, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return 0, false
	}
	if b, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "make" {
		return 0, false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return 0, false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return 0, false
	}
	cv, ok := info.Types[call.Args[1]]
	if !ok || cv.Value == nil {
		return 0, false
	}
	n, exact := constant.Int64Val(constant.ToInt(cv.Value))
	return n, exact
}

// packageSends counts the package's send statements on obj and whether
// any of them sits inside a loop.
func packageSends(info *types.Info, files []*ast.File, obj types.Object) (count int, looped bool) {
	for _, f := range files {
		par := parents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				return true
			}
			if chanObject(info, send.Chan) != obj {
				return true
			}
			count++
			if inLoop(par, send) {
				looped = true
			}
			return true
		})
	}
	return count, looped
}

// inLoop reports whether n sits inside a for or range statement (within
// the same function: the walk stops at function boundaries).
func inLoop(par map[ast.Node]ast.Node, n ast.Node) bool {
	for cur := par[n]; cur != nil; cur = par[cur] {
		switch cur.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}
