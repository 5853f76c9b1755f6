package lint

import (
	"go/ast"
	"go/types"
)

// This file is the control-flow substrate of the dataflow analyses
// (lockheld, condguard). It lowers one function body into a conventional
// basic-block graph over the go/ast statement nodes — no SSA, no
// third-party dependency — precise enough to answer the question they
// ask: "which locks are definitely held at this statement?" (must-held
// analysis, lockflow.go).
//
// Panics and calls that never return (os.Exit, log.Fatal*, runtime.Goexit,
// testing's Fatal/Skip family) end their block without an exit edge: a
// path that never returns releases no lock a later statement could
// observe.

// cfgBlock is one basic block: statements (and guard expressions) in
// execution order, then unconditional transfer to one of succs.
type cfgBlock struct {
	nodes []ast.Node
	succs []*cfgBlock
}

// cfg is the control-flow graph of one function body. exit is the single
// synthetic normal-exit block: returns and falling off the end edge to
// it. Blocks whose control dies (panic, Goexit) simply have no
// successors.
type cfg struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock
}

// loopFrame tracks the jump targets of one enclosing loop or switch.
type loopFrame struct {
	label        string    // of the enclosing LabeledStmt, or ""
	breakTarget  *cfgBlock // after the construct
	continueTgt  *cfgBlock // loop post/cond block; nil for switch/select
	isSwitchLike bool      // break applies, continue does not
}

type cfgBuilder struct {
	g      *cfg
	info   *types.Info
	frames []loopFrame
	labels map[string]*cfgBlock // goto targets
	gotos  []gotoPatch
}

type gotoPatch struct {
	from  *cfgBlock
	label string
}

// buildCFG lowers body to a cfg. info drives the detection of calls that
// never return; it may be nil (every call is then assumed to return).
func buildCFG(body *ast.BlockStmt, info *types.Info) *cfg {
	b := &cfgBuilder{
		g:      &cfg{},
		info:   info,
		labels: map[string]*cfgBlock{},
	}
	b.g.entry = b.newBlock()
	b.g.exit = b.newBlock()
	last := b.stmts(body.List, b.g.entry, "")
	if last != nil {
		b.link(last, b.g.exit)
	}
	for _, p := range b.gotos {
		if tgt, ok := b.labels[p.label]; ok {
			b.link(p.from, tgt)
		}
		// An unresolved goto (malformed source) leaves the block dead-ended.
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// stmts lowers a statement list starting in cur and returns the block
// holding the fallthrough end of the list, or nil when control cannot
// reach past it. label names the LabeledStmt directly wrapping the next
// loop/switch statement, so labeled break/continue resolve.
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *cfgBlock, label string) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a terminator; lower it anyway (it may
			// hold labels gotos jump to) starting from a fresh dead block.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur, label)
		label = ""
	}
	return cur
}

// stmt lowers one statement and returns the block control falls into
// afterwards (nil if control never falls through).
func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock, label string) *cfgBlock {
	switch st := s.(type) {
	case *ast.LabeledStmt:
		tgt := b.newBlock()
		b.link(cur, tgt)
		b.labels[st.Label.Name] = tgt
		return b.stmt(st.Stmt, tgt, st.Label.Name)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, st)
		b.link(cur, b.g.exit)
		return nil

	case *ast.BranchStmt:
		cur.nodes = append(cur.nodes, st)
		switch st.Tok.String() {
		case "break":
			if tgt := b.findBreak(st.Label); tgt != nil {
				b.link(cur, tgt)
			}
		case "continue":
			if tgt := b.findContinue(st.Label); tgt != nil {
				b.link(cur, tgt)
			}
		case "goto":
			if st.Label != nil {
				b.gotos = append(b.gotos, gotoPatch{from: cur, label: st.Label.Name})
			}
		case "fallthrough":
			// Handled by the switch lowering (the clause end links to the
			// next clause body); nothing to do here.
			return cur
		}
		return nil

	case *ast.BlockStmt:
		return b.stmts(st.List, cur, "")

	case *ast.IfStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur, "")
		}
		cur.nodes = append(cur.nodes, st.Cond)
		after := b.newBlock()
		thenB := b.newBlock()
		b.link(cur, thenB)
		if end := b.stmts(st.Body.List, thenB, ""); end != nil {
			b.link(end, after)
		}
		if st.Else != nil {
			elseB := b.newBlock()
			b.link(cur, elseB)
			if end := b.stmt(st.Else, elseB, ""); end != nil {
				b.link(end, after)
			}
		} else {
			b.link(cur, after)
		}
		return after

	case *ast.ForStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur, "")
		}
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.link(cur, head)
		if st.Cond != nil {
			head.nodes = append(head.nodes, st.Cond)
			b.link(head, after) // condition false
		}
		b.link(head, body)
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: after, continueTgt: post})
		end := b.stmts(st.Body.List, body, "")
		b.frames = b.frames[:len(b.frames)-1]
		if end != nil {
			b.link(end, post)
		}
		if st.Post != nil {
			b.stmt(st.Post, post, "")
		}
		b.link(post, head)
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		cur.nodes = append(cur.nodes, st.X)
		b.link(cur, head)
		b.link(head, body)
		b.link(head, after) // range exhausted
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: after, continueTgt: head})
		end := b.stmts(st.Body.List, body, "")
		b.frames = b.frames[:len(b.frames)-1]
		if end != nil {
			b.link(end, head)
		}
		return after

	case *ast.SwitchStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur, "")
		}
		if st.Tag != nil {
			cur.nodes = append(cur.nodes, st.Tag)
		}
		return b.switchBody(st.Body, cur, label, true)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur, "")
		}
		cur.nodes = append(cur.nodes, st.Assign)
		return b.switchBody(st.Body, cur, label, true)

	case *ast.SelectStmt:
		after := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: after, isSwitchLike: true})
		for _, clause := range st.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.link(cur, blk)
			if cc.Comm != nil {
				blk = b.stmt(cc.Comm, blk, "")
			}
			if end := b.stmts(cc.Body, blk, ""); end != nil {
				b.link(end, after)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(st.Body.List) == 0 {
			// Empty select blocks forever: no successor. It has no comm
			// statement to stand for it, so it is its own node.
			cur.nodes = append(cur.nodes, st)
			return nil
		}
		return after

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, st)
		if call, ok := st.X.(*ast.CallExpr); ok && b.neverReturns(call) {
			return nil
		}
		return cur

	default:
		// Assignments, declarations, sends, defers, go statements, inc/dec,
		// empty statements: straight-line nodes.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchBody lowers the clause list of a switch/type-switch. A missing
// default adds a direct edge to after (no clause matched).
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, cur *cfgBlock, label string, hasDefaultEdge bool) *cfgBlock {
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTarget: after, isSwitchLike: true})
	hasDefault := false
	// Lower clause bodies first so fallthrough can link to the next one.
	clauseBlocks := make([]*cfgBlock, 0, len(body.List))
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.link(cur, blk)
		for _, e := range cc.List {
			blk.nodes = append(blk.nodes, e)
		}
		clauseBlocks = append(clauseBlocks, blk)
		clauses = append(clauses, cc)
	}
	for i, cc := range clauses {
		end := b.stmts(cc.Body, clauseBlocks[i], "")
		if end == nil {
			continue
		}
		if fallsThrough(cc.Body) && i+1 < len(clauseBlocks) {
			b.link(end, clauseBlocks[i+1])
		} else {
			b.link(end, after)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	if hasDefaultEdge && !hasDefault {
		b.link(cur, after)
	}
	return after
}

// fallsThrough reports whether the clause body ends in a fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

func (b *cfgBuilder) findBreak(label *ast.Ident) *cfgBlock {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label == nil || f.label == label.Name {
			return f.breakTarget
		}
	}
	return nil
}

func (b *cfgBuilder) findContinue(label *ast.Ident) *cfgBlock {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if f.isSwitchLike || f.continueTgt == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f.continueTgt
		}
	}
	return nil
}

// enclosing returns n itself when n is one of g's nodes, otherwise the
// innermost node containing it (deterministic over g.blocks order), nil
// when there is none.
func (g *cfg) enclosing(n ast.Node) ast.Node {
	var best ast.Node
	for _, blk := range g.blocks {
		for _, cand := range blk.nodes {
			if cand.Pos() <= n.Pos() && n.End() <= cand.End() {
				if best == nil || (cand.Pos() >= best.Pos() && cand.End() <= best.End()) {
					best = cand
				}
			}
		}
	}
	return best
}

// neverReturns reports whether call is a statically known no-return call:
// the builtin panic, runtime.Goexit, os.Exit, the log.Fatal family, or a
// testing Fatal/Skip method.
func (b *cfgBuilder) neverReturns(call *ast.CallExpr) bool {
	if b.info == nil {
		return false
	}
	if isPanic(b.info, call) {
		return true
	}
	fn, ok := funcFor(b.info, call)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "runtime":
		return fn.Name() == "Goexit"
	case "os":
		return fn.Name() == "Exit"
	case "log":
		switch fn.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	case "testing":
		switch fn.Name() {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// isPanic reports whether call is the builtin panic.
func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
