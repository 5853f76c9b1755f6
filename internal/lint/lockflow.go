package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The concurrency-fact core (DESIGN.md §16): the two questions every lock
// rule asks of a function body — which mutexes are definitely held at this
// node, and does this node block — are answered here once. The
// lockheld/chanflow checker, condguard, waitjoin and the summary scans
// (scanBlocks, scanHeld, scanLockFacts) all read these results.

const (
	opNone = iota
	opLock
	opUnlock
)

// heldLock is one mutex in a must-held set.
type heldLock struct {
	recv  string    // printed receiver expression: the set's key and the name in messages
	id    string    // abstract identity (lockfacts.go), "" when the receiver has none
	write bool      // Lock/Unlock rather than RLock/RUnlock
	pos   token.Pos // the acquiring call
}

// mutexOp classifies call as acquiring or releasing a sync.Mutex/RWMutex
// and describes the lock it operates on.
func mutexOp(info *types.Info, call *ast.CallExpr) (heldLock, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, opNone
	}
	l := heldLock{pos: call.Pos()}
	var op int
	switch sel.Sel.Name {
	case "Lock":
		op, l.write = opLock, true
	case "RLock":
		op = opLock
	case "Unlock":
		op, l.write = opUnlock, true
	case "RUnlock":
		op = opUnlock
	default:
		return heldLock{}, opNone
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return heldLock{}, opNone
	}
	pkg, typ, ok := methodOn(fn)
	if !ok || pkg != "sync" || (typ != "Mutex" && typ != "RWMutex") {
		return heldLock{}, opNone
	}
	l.recv = types.ExprString(sel.X)
	// A promoted method (type T struct{ sync.Mutex }; t.Lock()) reaches the
	// mutex through embedded fields recorded in the selection's index path.
	if s, ok := info.Selections[sel]; ok && len(s.Index()) > 1 {
		l.id = fieldPathIdent(s.Recv(), s.Index()[:len(s.Index())-1])
	} else {
		l.id = lockIdentOf(info, sel.X)
	}
	return l, op
}

// heldSet is a must-held lock set keyed by printed receiver, so that
// a.mu.Lock(); b.mu.Unlock() leaves a.mu held even when both are the same
// field of one type; byIdentity projects it for the cross-function facts.
type heldSet map[string]heldLock

func (s heldSet) clone() heldSet {
	c := make(heldSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s heldSet) equal(o heldSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k, v := range s {
		if ov, ok := o[k]; !ok || ov.write != v.write {
			return false
		}
	}
	return true
}

// meet keeps the locks held on both inbound paths; a lock write-held on
// only one of them demotes to a read hold.
func (s heldSet) meet(o heldSet) heldSet {
	out := heldSet{}
	for k, v := range s {
		if ov, ok := o[k]; ok {
			v.write = v.write && ov.write
			out[k] = v
		}
	}
	return out
}

// apply folds every mutex op contained in node n into s, in source order,
// without descending into function literals, deferred calls (a deferred
// unlock keeps the lock held to the end of the function, which is the
// point) or spawned goroutines.
func (s heldSet) apply(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			switch l, op := mutexOp(info, c); op {
			case opLock:
				// A re-acquire keeps the stronger (and earlier) hold.
				if prev, ok := s[l.recv]; !ok || !prev.write {
					s[l.recv] = l
				}
			case opUnlock:
				delete(s, l.recv)
			}
		}
		return true
	})
}

// names renders the held receivers sorted, for stable messages.
func (s heldSet) names() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// byIdentity re-keys the set by abstract lock identity, dropping locks
// that have none. Two receivers naming one identity collapse onto the
// stronger, then earlier, hold.
func (s heldSet) byIdentity() map[string]heldLock {
	out := make(map[string]heldLock, len(s))
	for _, l := range s {
		if l.id == "" {
			continue
		}
		if prev, ok := out[l.id]; !ok || (l.write && !prev.write) || (l.write == prev.write && l.pos < prev.pos) {
			out[l.id] = l
		}
	}
	return out
}

// lockFlow is the must-held analysis of one function body: the locks
// definitely held on entry to every CFG node.
type lockFlow struct {
	g  *cfg
	at map[ast.Node]heldSet
}

// mustHeld runs the forward must-analysis over g. Lock/RLock adds the
// receiver, Unlock/RUnlock removes it, and control-flow merges intersect,
// so a lock held on only one inbound path does not count.
func mustHeld(g *cfg, info *types.Info) *lockFlow {
	lf := &lockFlow{g: g, at: map[ast.Node]heldSet{}}
	in := map[*cfgBlock]heldSet{g.entry: {}}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		cur := in[blk].clone()
		for _, n := range blk.nodes {
			lf.at[n] = cur.clone()
			cur.apply(n, info)
		}
		for _, succ := range blk.succs {
			next, seen := in[succ]
			if !seen {
				in[succ] = cur.clone()
				work = append(work, succ)
			} else if merged := next.meet(cur); !merged.equal(next) {
				in[succ] = merged
				work = append(work, succ)
			}
		}
	}
	return lf
}

// heldAt returns the set in force when n begins executing: n's own entry
// state when n is a CFG node, otherwise that of the innermost CFG node
// containing it. Earlier statements of the same basic block have already
// been applied, so `mu.Lock()` on the line above is credited.
func (lf *lockFlow) heldAt(n ast.Node) heldSet {
	return lf.at[lf.g.enclosing(n)]
}

// blockOp is one potentially blocking operation of a function body.
type blockOp struct {
	node ast.Node  // the send, receive, range, select or call itself
	at   ast.Node  // where to read its held set (see blockingOps)
	pos  token.Pos // where to report it
	desc string
	// comm: node is (part of) a select clause's comm statement — the
	// select's own decision, not an independent operation.
	comm bool
	// strictOnly: node cannot be proven to block (a select with a default,
	// a function-typed field called back) and is banned under a lock only
	// in the overlap-critical packages.
	strictOnly bool
}

// blockingOps is the one blocking-op vocabulary. It lists, in source order
// and without descending into function literals, every operation of body
// that may park the goroutine: channel send, channel receive, range over a
// channel, select without a default (select {} included), a call to a
// method named Wait or Drain (sync.Cond.Wait exempt: it releases the
// mutex while parked), and a call to an in-module function whose summary
// says it always blocks — plus the two strictOnly shapes. The call of a go
// statement runs on another goroutine and is not an operation here; its
// arguments still are.
//
// at is the node itself except where the CFG has no node for it: a range
// statement is represented by its operand, a select by its first comm
// statement (every clause starts from the same state).
func (p *Program) blockingOps(info *types.Info, body *ast.BlockStmt) []blockOp {
	var ops []blockOp
	comm := map[ast.Node]bool{}
	spawned := map[*ast.CallExpr]bool{}
	add := func(op blockOp) {
		if op.at == nil {
			op.at = op.node
		}
		op.comm = comm[op.node]
		ops = append(ops, op)
	}
	topLevelStmts(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			spawned[x.Call] = true
		case *ast.SendStmt:
			add(blockOp{node: x, pos: x.Arrow, desc: "blocking channel send"})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				add(blockOp{node: x, pos: x.OpPos, desc: "blocking channel receive"})
			}
		case *ast.RangeStmt:
			if _, isChan := info.TypeOf(x.X).Underlying().(*types.Chan); isChan {
				add(blockOp{node: x, at: x.X, pos: x.For, desc: "blocking range over channel"})
			}
		case *ast.SelectStmt:
			op := blockOp{node: x, pos: x.Select, desc: "select {} (blocks forever)"}
			for _, clause := range x.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm == nil {
					op.strictOnly = true
					continue
				}
				if op.at == nil {
					op.at = cc.Comm
				}
				ast.Inspect(cc.Comm, func(c ast.Node) bool {
					if c != nil {
						comm[c] = true
					}
					return true
				})
			}
			if op.strictOnly {
				op.desc = "select (blocking channel operation)"
			} else if len(x.Body.List) > 0 {
				op.desc = "select without default (blocks until a case is ready)"
			}
			add(op)
		case *ast.CallExpr:
			if spawned[x] {
				return true
			}
			sel, isSel := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if fn, ok := funcFor(info, x); ok {
				if name := fn.Name(); isSel && (name == "Wait" || name == "Drain") {
					if pkg, typ, ok := methodOn(fn); !ok || pkg != "sync" || typ != "Cond" {
						add(blockOp{node: x, pos: x.Pos(), desc: "blocking " + types.ExprString(sel.X) + "." + name + "()"})
					}
				} else if key, ok := p.staticCallee(info, x); ok {
					if cs := p.Summaries[key]; cs != nil && cs.Blocks {
						add(blockOp{node: x, pos: x.Pos(), desc: "call to " + key + ", which always blocks (" + cs.BlocksWhy + ")"})
					}
				}
			} else if isSel {
				// A call through a function-typed struct field — the paper's
				// completion-callback shape.
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					if _, isFunc := s.Type().Underlying().(*types.Signature); isFunc {
						add(blockOp{node: x, pos: x.Pos(), desc: "callback field " + types.ExprString(sel) + " invoked", strictOnly: true})
					}
				}
			}
		}
		return true
	})
	return ops
}
