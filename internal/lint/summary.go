package lint

import (
	"go/ast"
	"go/types"
	"reflect"
)

// Per-function summaries (DESIGN.md §13). A summary is everything a caller
// needs to know about a callee without looking at its body, in the
// RacerD-compositional style: obligation transfer (does passing a value in
// release it, consume it, or merely borrow it?), result ownership (does the
// callee hand back a pool obligation or a cancel func?) and lock effects
// (does it block? which locks does it take, in what order?).
//
// Facts are may-facts unless stated otherwise, and every fact is monotone
// from an all-false bottom, so the SCC fixpoint in computeSummaries
// converges: recursion starts callees at the empty summary and iterates
// until stable.

// ParamFacts describes what a function may do with one incoming value.
// Slot 0 is the receiver when HasRecv; explicit parameters follow, with
// every variadic argument mapped onto the final slot.
type ParamFacts struct {
	// Released: the value is handed back to its pool (buffer.PutChunk,
	// sync.Pool.Put, or transitively a callee that releases it).
	Released bool
	// Escapes: the bare value is stored, captured, appended, sent, or
	// passed somewhere unknown — ownership visibly leaves the function.
	Escapes bool
	// Returned: the bare value is returned to the caller.
	Returned bool
	// Called: the value is invoked as a function (discharges a cancel).
	Called bool
}

// borrows reports whether the facts amount to a pure borrow: the callee
// looks at the value and hands it back untouched — nothing that could
// discharge a pool or cancel obligation.
func (f ParamFacts) borrows() bool {
	return !f.Released && !f.Escapes && !f.Returned && !f.Called
}

// FuncSummary is the compositional summary of one function.
type FuncSummary struct {
	HasRecv bool
	Params  []ParamFacts
	// OwnedResults[i]: on every normal return path, result i carries a
	// fresh pool obligation (buffer.GetChunk / sync.Pool Get) the caller
	// must discharge. Mixed nil-or-owned results stay false.
	OwnedResults []bool
	// CancelResults[i]: on every normal return path, result i is a context
	// cancel func the caller must call.
	CancelResults []bool
	// Blocks: every path from entry to the normal exit performs a
	// potentially blocking operation (send, receive, select without
	// default, Wait/Drain, or a callee that Blocks).
	Blocks    bool
	BlocksWhy string
	// Acquires: abstract locks the function may take in its dynamic extent,
	// directly or through callees (lockfacts.go); Chain names the call path.
	Acquires []LockAcq
	// AcqEdges: lock-order facts "may acquire Acq while Held is definitely
	// held" — the module-wide lock graph is the union of these.
	AcqEdges []LockEdge
	// LockReports: conflicts proven outright during the scan (self-deadlock,
	// RLock→Lock upgrade), replayed by the lockorder analyzer.
	LockReports []LockReport
}

// argSlot maps a call-site argument index onto a summary slot; -1 when the
// summary has no explicit parameters.
func (s *FuncSummary) argSlot(argIdx int) int {
	base := 0
	if s.HasRecv {
		base = 1
	}
	if len(s.Params)-base <= 0 {
		return -1
	}
	slot := base + argIdx
	if slot >= len(s.Params) {
		slot = len(s.Params) - 1 // variadic tail
	}
	return slot
}

// recvSlot returns the receiver's slot, -1 when the function has none.
func (s *FuncSummary) recvSlot() int {
	if s.HasRecv && len(s.Params) > 0 {
		return 0
	}
	return -1
}

// argFacts returns the facts for a value passed as argument argIdx, the
// all-false facts when the slot cannot be mapped.
func (s *FuncSummary) argFacts(argIdx int) ParamFacts {
	if slot := s.argSlot(argIdx); slot >= 0 {
		return s.Params[slot]
	}
	return ParamFacts{}
}

// computeSummaries runs the bottom-up fixpoint: SCCs in callee-first
// order, every function starting from the empty summary, iterating each
// component until its summaries stop changing.
func (p *Program) computeSummaries() {
	for _, scc := range p.order {
		for _, key := range scc {
			p.Summaries[key] = emptySummary(p.ByKey[key])
		}
		for iter := 0; iter < 16; iter++ {
			changed := false
			for _, key := range scc {
				ns := p.computeSummary(p.ByKey[key])
				if !reflect.DeepEqual(p.Summaries[key], ns) {
					p.Summaries[key] = ns
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// paramObjects returns the value objects of fi's summary slots: receiver
// first (when present), then the declared parameters.
func paramObjects(fi *FuncInfo) []types.Object {
	sig, ok := fi.Fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []types.Object
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// emptySummary is the all-false bottom element for fi, with slot and
// result shapes in place.
func emptySummary(fi *FuncInfo) *FuncSummary {
	sig, _ := fi.Fn.Type().(*types.Signature)
	s := &FuncSummary{HasRecv: sig != nil && sig.Recv() != nil}
	s.Params = make([]ParamFacts, len(paramObjects(fi)))
	if sig != nil && sig.Results().Len() > 0 {
		n := sig.Results().Len()
		s.OwnedResults = make([]bool, n)
		s.CancelResults = make([]bool, n)
	}
	return s
}

// computeSummary derives fi's summary from its body and the current
// summaries of its callees.
func (p *Program) computeSummary(fi *FuncInfo) *FuncSummary {
	s := emptySummary(fi)
	objs := paramObjects(fi)
	slotOf := make(map[types.Object]int, len(objs))
	for i, o := range objs {
		slotOf[o] = i
	}
	p.scanValueFacts(fi, slotOf, s)
	p.scanResultFacts(fi, s)
	p.scanBlocks(fi, s)
	p.scanLockFacts(fi, s)
	return s
}

// callSummary resolves call to the summary of its static in-program
// target, nil otherwise.
func (p *Program) callSummary(info *types.Info, call *ast.CallExpr) *FuncSummary {
	key, ok := p.staticCallee(info, call)
	if !ok {
		return nil
	}
	return p.Summaries[key]
}

// --- value-level obligation facts -----------------------------------------

// scanValueFacts classifies every use of a parameter (or receiver) in fi's
// body with classifyUse. A deferred literal runs in this frame at exit, so
// its uses count as the function's own; any other closure capture escapes.
func (p *Program) scanValueFacts(fi *FuncInfo, slotOf map[types.Object]int, s *FuncSummary) {
	info := fi.Pkg.Info
	deferLit := map[*ast.FuncLit]bool{} // runs in this frame, at exit
	var stack []ast.Node
	litDepth := 0
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if lit, ok := top.(*ast.FuncLit); ok && !deferLit[lit] {
				litDepth--
			}
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.DeferStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				deferLit[lit] = true
			}
		case *ast.FuncLit:
			if !deferLit[x] {
				litDepth++
			}
		case *ast.Ident:
			slot, isParam := slotOf[info.Uses[x]]
			if !isParam {
				return true
			}
			f := &s.Params[slot]
			if litDepth > 0 {
				f.Escapes = true // captured by a closure that may outlive the call
				return true
			}
			p.classifyUse(info, stack, x, f)
		}
		return true
	})
}

// classifyUse folds one bare appearance of a tracked value into facts,
// judging by the immediately enclosing node — the only place the linter
// decides what an appearance does with a value; the summary fixpoint (for
// parameters) and the obligation checker (for locals, obligation.go) both
// ask it. Field access and dereference are plain uses, any other bare
// appearance moves the value, refined with callee summaries: a pass to a
// known borrowing callee is a plain use, a pass to a releasing callee is a
// release. stack ends at id; a bare id with no enclosing node (an
// expression the CFG holds on its own) counts as moved.
func (p *Program) classifyUse(info *types.Info, stack []ast.Node, id *ast.Ident, f *ParamFacts) {
	var encl ast.Node
	if len(stack) >= 2 {
		encl = stack[len(stack)-2]
	}
	switch parent := encl.(type) {
	case *ast.SelectorExpr:
		if parent.X != id {
			return
		}
		// x.f / x.m(...): plain use, unless it invokes a known method whose
		// receiver facts say otherwise.
		if len(stack) >= 3 {
			if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && call.Fun == parent {
				if cs := p.callSummary(info, call); cs != nil {
					if slot := cs.recvSlot(); slot >= 0 {
						mergeFacts(f, cs.Params[slot])
					}
				}
			}
		}
	case *ast.StarExpr:
		if parent.X != id {
			return
		}
		// *x: dereference, plain use.
	case *ast.CallExpr:
		if parent.Fun == id {
			f.Called = true
			return
		}
		argIdx := -1
		for i, a := range parent.Args {
			if a == id {
				argIdx = i
				break
			}
		}
		if argIdx < 0 {
			return // e.g. the Fun position of a conversion
		}
		mergeFacts(f, p.argUseFacts(info, parent, argIdx))
	case *ast.ReturnStmt:
		f.Returned = true
	default:
		// Assignment, composite literal, send, index base of a store, map
		// key, binary expr… — the bare value moved somewhere.
		f.Escapes = true
	}
}

// mergeFacts folds src's obligation bits into dst.
func mergeFacts(dst *ParamFacts, src ParamFacts) {
	dst.Released = dst.Released || src.Released
	dst.Escapes = dst.Escapes || src.Escapes
	dst.Returned = dst.Returned || src.Returned
	dst.Called = dst.Called || src.Called
}

// argUseFacts says what happens to a value passed as argument argIdx of
// call: released by the pool intrinsics or a releasing callee, consumed by
// append/panic/unknown callees (the v2 "any pass is a transfer"
// conservatism), borrowed by callees whose summaries prove it.
func (p *Program) argUseFacts(info *types.Info, call *ast.CallExpr, argIdx int) ParamFacts {
	if isPutChunkCall(info, call) || isPoolPutCall(info, call) {
		if argIdx == 0 {
			return ParamFacts{Released: true}
		}
		return ParamFacts{}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "panic":
				return ParamFacts{Escapes: true}
			default:
				return ParamFacts{} // len, cap, …: plain use
			}
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return ParamFacts{} // conversion: the value itself, renamed
	}
	if cs := p.callSummary(info, call); cs != nil {
		f := cs.argFacts(argIdx)
		// A callee that returns the value hands it back to *this* frame's
		// caller-visible result chain; v2 treated any pass as a transfer, so
		// fold Returned into Escapes to stay no-new-false-positives.
		return ParamFacts{
			Released: f.Released,
			Escapes:  f.Escapes || f.Returned,
			Called:   f.Called,
		}
	}
	return ParamFacts{Escapes: true} // unknown callee: assume it consumes
}

// --- result ownership facts ------------------------------------------------

// scanResultFacts computes OwnedResults and CancelResults — the same
// must-analysis over every normal return path, asked once per result kind.
func (p *Program) scanResultFacts(fi *FuncInfo, s *FuncSummary) {
	copy(s.OwnedResults, p.mustResults(fi, (*Program).ownedResultsOf))
	copy(s.CancelResults, p.mustResults(fi, (*Program).cancelResultsOf))
}

// resultFlags says, per result of call, which ones carry an obligation of
// one kind: ownedResultsOf or cancelResultsOf.
type resultFlags func(p *Program, info *types.Info, call *ast.CallExpr) []bool

// resultSites is the one obligation site detector, shared by the summary
// fixpoint and the obligation checker (obligation.go): it visits every
// `x… := call` of body — `=` and the `Get().(*T)` / comma-ok assertion
// forms included — once per flagged result bound to a plain identifier
// (`_` too; the visitor decides what a discard means). A result assigned
// straight into a field or element moved to that structure and is not a
// site.
func (p *Program) resultSites(info *types.Info, body *ast.BlockStmt, flags resultFlags,
	visit func(as *ast.AssignStmt, call *ast.CallExpr, id *ast.Ident)) {
	topLevelStmts(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unwrapAssert(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		set := flags(p, info, call)
		for i, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && i < len(set) && set[i] {
				visit(as, call, id)
			}
		}
		return true
	})
}

// mustResults reports, per result of fi, whether every normal return path
// hands back a value flagged by flags: a local bound at a result site, or a
// flagged call returned directly. nil when nothing is guaranteed.
func (p *Program) mustResults(fi *FuncInfo, flags resultFlags) []bool {
	sig, _ := fi.Fn.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() == 0 {
		return nil
	}
	nres := sig.Results().Len()
	info := fi.Pkg.Info
	bound := map[types.Object]bool{}
	p.resultSites(info, fi.Decl.Body, flags, func(_ *ast.AssignStmt, _ *ast.CallExpr, id *ast.Ident) {
		if obj := info.ObjectOf(id); obj != nil {
			bound[obj] = true
		}
	})
	acc := make([]bool, nres)
	for i := range acc {
		acc[i] = true
	}
	and := func(r []bool) {
		for i := range acc {
			acc[i] = acc[i] && i < len(r) && r[i]
		}
	}
	sawReturn := false
	topLevelStmts(fi.Decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		sawReturn = true
		switch {
		case len(rs.Results) == 0:
			and(nil) // named results falling back: no ownership claim
		case len(rs.Results) == 1 && nres > 1:
			// return f(): tuple pass-through.
			var r []bool
			if call, ok := unwrapAssert(rs.Results[0]).(*ast.CallExpr); ok {
				r = flags(p, info, call)
			}
			and(r)
		default:
			r := make([]bool, nres)
			for i, e := range rs.Results {
				switch e := unwrapAssert(e).(type) {
				case *ast.Ident:
					r[i] = bound[info.Uses[e]]
				case *ast.CallExpr:
					if f := flags(p, info, e); len(f) == 1 {
						r[i] = f[0]
					}
				}
			}
			and(r)
		}
		return true
	})
	if !sawReturn || fallsOffEnd(fi.cfg()) {
		return nil // a no-return path reaches the exit: nothing is guaranteed
	}
	return acc
}

// ownedResultsOf reports, per result of call, whether it is a fresh pool
// obligation: the GetChunk/Pool.Get intrinsics or a callee whose summary
// says so.
func (p *Program) ownedResultsOf(info *types.Info, call *ast.CallExpr) []bool {
	if isGetChunkCall(info, call) || isPoolGetCall(info, call) {
		return []bool{true}
	}
	if cs := p.callSummary(info, call); cs != nil {
		return cs.OwnedResults
	}
	return nil
}

// cancelResultsOf reports, per result of call, whether it is a context
// cancel func: the context constructors or a callee whose summary says so.
func (p *Program) cancelResultsOf(info *types.Info, call *ast.CallExpr) []bool {
	if fn, ok := funcFor(info, call); ok && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
		switch fn.Name() {
		case "WithCancel", "WithCancelCause", "WithTimeout", "WithTimeoutCause",
			"WithDeadline", "WithDeadlineCause":
			return []bool{false, true}
		}
	}
	if cs := p.callSummary(info, call); cs != nil {
		return cs.CancelResults
	}
	return nil
}

// unwrapAssert strips a type assertion (and parens): the Get().(*T) idiom.
func unwrapAssert(e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		return ast.Unparen(ta.X)
	}
	return e
}

// --- blocking facts --------------------------------------------------------

// scanBlocks computes Blocks: an operation of the blockingOps vocabulary on
// every normal path. A select's comm statements count like any other send
// or receive — the CFG places one on every path through a select that has
// no default — and BlocksWhy names the first operation in source order.
func (p *Program) scanBlocks(fi *FuncInfo, s *FuncSummary) {
	g := fi.cfg()
	blocking := map[ast.Node]bool{}
	why := ""
	for _, op := range p.blockingOps(fi.Pkg.Info, fi.Decl.Body) {
		if op.callback {
			continue
		}
		blocking[g.enclosing(op.at)] = true
		if why == "" {
			why = op.desc
		}
	}
	if why != "" && !g.reachesExitWithout(func(n ast.Node) bool { return blocking[n] }) {
		s.Blocks = true
		s.BlocksWhy = why
	}
}

// --- intrinsics ------------------------------------------------------------

// The pool intrinsics are matched by import-path suffix rather than
// configured path so they hold under any module prefix — including the
// fixture loader, whose packages import the real module packages.

func isPutChunkCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := funcFor(info, call)
	return ok && fn.Pkg() != nil && fn.Name() == "PutChunk" && pathSuffixWithin(fn.Pkg().Path(), "internal/buffer")
}

func isGetChunkCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := funcFor(info, call)
	return ok && fn.Pkg() != nil && fn.Name() == "GetChunk" && pathSuffixWithin(fn.Pkg().Path(), "internal/buffer")
}

func isPoolPutCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := funcFor(info, call)
	if !ok || fn.Name() != "Put" {
		return false
	}
	pkg, typ, isMethod := methodOn(fn)
	return isMethod && pkg == "sync" && typ == "Pool"
}

func isPoolGetCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := funcFor(info, call)
	if !ok || fn.Name() != "Get" {
		return false
	}
	pkg, typ, isMethod := methodOn(fn)
	return isMethod && pkg == "sync" && typ == "Pool"
}
