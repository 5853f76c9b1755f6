package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// NewWaitjoin builds the waitjoin analyzer: a sync.WaitGroup.Wait must
// not execute while holding a lock that one of the goroutines it joins
// still needs. gojoin proves every spawn has a join edge; waitjoin proves
// the join itself cannot be a wait-for cycle: the waiter holds L and
// parks in Wait, the worker parks in L.Lock, nobody moves. The check is
// per enclosing function — the scope where the spawn/Add/Wait protocol is
// visible — and interprocedural on the worker side: a spawned literal's
// direct lock operations and its callees' summarized Acquires (abstract
// identities, lockfacts.go) both count, as do the Acquires of a spawned
// named function. Lock identity is abstract, so a worker locking m.mu
// through a helper three calls deep is still caught. Read-read overlap is
// not flagged (RWMutex readers don't exclude each other); every other
// mode combination is.
func NewWaitjoin() *Analyzer {
	return &Analyzer{
		Name: "waitjoin",
		Doc:  "WaitGroup.Wait must not hold a lock a joined goroutine needs (wait-for cycle)",
		Run:  runWaitjoin,
	}
}

// spawnedAcq is one lock a spawned goroutine may take.
type spawnedAcq struct {
	spawn *ast.GoStmt
	fn    string // "" for a literal's direct op
	acq   LockAcq
}

func runWaitjoin(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	keys := make([]string, 0, len(pass.Prog.ByKey))
	for k, fi := range pass.Prog.ByKey {
		if fi.Pkg == pass.Pkg {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		checkWaitjoin(pass, pass.Prog.ByKey[k])
	}
}

func checkWaitjoin(pass *Pass, fi *FuncInfo) {
	info := fi.Pkg.Info
	body := fi.Decl.Body
	par := parents(fi.Decl)

	// Wait sites of this function proper (a Wait inside a nested literal
	// belongs to whichever goroutine runs the literal, not this one).
	var waits []*ast.CallExpr
	topLevelStmts(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethod(info, call, "Wait") {
			waits = append(waits, call)
		}
		return true
	})
	if len(waits) == 0 {
		return
	}

	// Locks the joined goroutines may acquire. Spawns anywhere in the body
	// count (including inside literals — they still run under this
	// function's protocol), provided WaitGroup evidence links them to a
	// join: an Add before the spawn or a Done in the spawned body.
	var acqs []spawnedAcq
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if !waitGroupJoined(info, par, gs) {
			return true
		}
		if lit, isLit := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); isLit {
			collectLitAcquires(pass, gs, lit, &acqs)
			return true
		}
		if key, isStatic := pass.Prog.staticCallee(info, gs.Call); isStatic {
			if cs := pass.Prog.Summaries[key]; cs != nil {
				for _, a := range cs.Acquires {
					acqs = append(acqs, spawnedAcq{spawn: gs, fn: key, acq: a})
				}
			}
		}
		return true
	})
	if len(acqs) == 0 {
		return
	}

	fset := fi.Pkg.Fset
	for _, wait := range waits {
		held := fi.held().heldAt(wait).byIdentity()
		// Deterministic lock order for multi-lock holds.
		ids := make([]string, 0, len(held))
		for id := range held {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			h := held[id]
			for _, sa := range acqs {
				if sa.acq.Lock != id {
					continue
				}
				if !h.write && !sa.acq.Write {
					continue // read-read: joiner and worker can overlap
				}
				who := "the goroutine spawned at " + fset.Position(sa.spawn.Pos()).String()
				if sa.fn != "" {
					who += " (" + sa.fn + ")"
				}
				pass.Reportf(wait.Pos(),
					"WaitGroup.Wait while holding %s (acquired at %s), but %s acquires %s: the worker can never finish and Wait never returns (wait-for cycle)",
					id, fset.Position(h.pos), who, sa.acq.describe())
				break
			}
		}
	}
}

// collectLitAcquires gathers the locks a spawned literal may take: its
// direct Lock/RLock ops and its static callees' summarized Acquires.
func collectLitAcquires(pass *Pass, gs *ast.GoStmt, lit *ast.FuncLit, acqs *[]spawnedAcq) {
	info := pass.Pkg.Info
	fset := pass.Pkg.Fset
	lockBodyOps(lit.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if l, op := mutexOp(info, call); op == opLock && l.id != "" {
			ps := fset.Position(call.Pos())
			*acqs = append(*acqs, spawnedAcq{spawn: gs, acq: LockAcq{
				Lock: l.id, Write: l.write,
				Site: LockSite{File: ps.Filename, Line: ps.Line, Col: ps.Column},
			}})
			return
		}
		if key, isStatic := pass.Prog.staticCallee(info, call); isStatic {
			if cs := pass.Prog.Summaries[key]; cs != nil {
				for _, a := range cs.Acquires {
					lifted := a
					lifted.Chain = append([]string{key}, a.Chain...)
					*acqs = append(*acqs, spawnedAcq{spawn: gs, fn: key, acq: lifted})
				}
			}
		}
	})
}

// waitGroupJoined reports whether gs is visibly joined through a
// WaitGroup: an Add call before the spawn in the enclosing function, or a
// Done/Add inside the spawned literal's body.
func waitGroupJoined(info *types.Info, par map[ast.Node]ast.Node, gs *ast.GoStmt) bool {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		done := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if done {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if isWaitGroupMethod(info, call, "Done") || isWaitGroupMethod(info, call, "Add") {
					done = true
					return false
				}
			}
			return true
		})
		if done {
			return true
		}
	}
	return addBeforeSpawn(info, par, gs)
}
