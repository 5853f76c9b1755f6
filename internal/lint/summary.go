package lint

import (
	"go/ast"
	"reflect"
)

// Per-function summaries (DESIGN.md §13). A summary is everything a caller
// needs to know about a callee without looking at its body, in the
// RacerD-compositional style: does it block, and which locks does it take,
// in what order? lockheld reads the blocking fact, lockorder the lock facts.
//
// Facts are may-facts unless stated otherwise, and every fact is monotone
// from an all-false bottom, so the SCC fixpoint in computeSummaries
// converges: recursion starts callees at the empty summary and iterates
// until stable.

// FuncSummary is the compositional summary of one function.
type FuncSummary struct {
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

// computeSummaries runs the bottom-up fixpoint: SCCs in callee-first
// order, every function starting from the empty summary, iterating each
// component until its summaries stop changing.
func (p *Program) computeSummaries() {
	for _, scc := range p.order {
		for _, key := range scc {
			p.Summaries[key] = &FuncSummary{}
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

// computeSummary derives fi's summary from its body and the current
// summaries of its callees.
func (p *Program) computeSummary(fi *FuncInfo) *FuncSummary {
	s := &FuncSummary{}
	p.scanBlocks(fi, s)
	p.scanLockFacts(fi, s)
	return s
}

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
