package lint

import "go/ast"

// NewPoolpair builds the poolpair analyzer for the buffer package at the
// given import path: in non-test code, a value obtained from
// buffer.GetChunk or a sync.Pool's Get must, on every path to the
// function's normal exit, either be returned to its pool (PutChunk /
// Put) or visibly change owner — returned, stored into a field, slice,
// map or channel, passed to a consuming call, or captured by a closure. A
// path that drops the value on the floor un-recycles it: the steady-state
// 0 allocs/op of the PR-3 hot loops holds only while every Get has a
// matching Put, and a leak here shows up as allocation growth no unit
// test pins until the benchmark regresses.
//
// Field reads and writes through the value (c.Recs, c.FirstPage = …) are
// plain uses, not ownership transfers; only the bare value moving
// somewhere else discharges the obligation. Panic/Fatal paths are exempt,
// and the analyzer skips test files entirely — fixtures churn pools in
// ways production code must not.
//
// The rule is one registration of the obligation checker (obligation.go)
// over the summary layer's OwnedResults facts, which makes it
// interprocedural (DESIGN.md §13):
//
//   - passing the value to an in-module callee whose summary proves a pure
//     borrow (no release, no escape, no return) does NOT discharge — the
//     obligation stays here;
//   - a call whose summary owns a result on every return path (a wrapper
//     around GetChunk or Pool.Get, like core's getWork) creates a new
//     obligation at the caller;
//   - sync.Pool Gets hidden behind a type assertion (`p.Get().(*[]uint32)`,
//     comma-ok or not) are obligation sites too.
//
// Unknown callees (stdlib, interface dispatch, function values) still
// count as transfers, so the tree gains no false positives. A result bound
// to `_` or stored straight into a field is not tracked here.
func NewPoolpair(bufferPath string) *Analyzer {
	ob := &obligation{
		flags:     (*Program).ownedResultsOf,
		skipTests: true,
		leaked: func(pass *Pass, as *ast.AssignStmt, call *ast.CallExpr, _ *ast.Ident) {
			info := pass.Pkg.Info
			var what, put string
			switch {
			case isGetChunkCall(info, call):
				what, put = "chunk from buffer.GetChunk", "buffer.PutChunk"
			case isPoolGetCall(info, call):
				what, put = "value from sync.Pool Get", "Put"
			default:
				what, put = "pooled value from "+pass.Prog.calleeName(info, call)+" (whose summary owns the result)", "its pool"
			}
			pass.Reportf(as.Pos(), "%s is not handed back via %s (or otherwise released) on every path to return", what, put)
		},
	}
	return &Analyzer{
		Name: "poolpair",
		Doc:  "buffer.GetChunk/PutChunk and sync.Pool Get/Put must pair on every path in non-test code",
		Run: func(pass *Pass) {
			if !pathWithin(pass.Pkg.Path, bufferPath) { // the pool's own package defines the lifecycle
				ob.run(pass)
			}
		},
	}
}
