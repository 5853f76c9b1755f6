package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// NewCancelfree builds the cancelfree analyzer: the cancel function
// returned by context.WithCancel, WithTimeout, WithDeadline (and their
// Cause variants) must be called on every path to the function's normal
// exit — the discipline that keeps the job manager and engine free of
// context leaks, where a forgotten cancel pins the parent context's
// resources (and, for WithTimeout, a live timer goroutine) long after the
// operation finished.
//
// The analysis is path-sensitive over the function's cfg: a cancel bound
// to `_` is an immediate finding; a named cancel must be called, deferred,
// or escape (returned, stored in a field, passed to another call, or
// captured by a closure — whoever receives it owns the obligation) before
// every reachable return. A `defer cancel()` anywhere discharges exactly
// the paths that execute it, so a defer inside one branch still leaks the
// other. Paths ending in panic or os.Exit are not leaks. The mechanical
// fix — inserting `defer cancel()` right after the creation — ships as a
// SuggestedFix applied by `optlint -fix`.
//
// The rule is one registration of the obligation checker (obligation.go)
// over the summary layer's CancelResults facts (DESIGN.md §13), which work
// in both directions: an in-module wrapper whose summary marks a result as
// a cancel func creates a site at its callers, and passing the cancel func
// to a callee whose summary proves a pure borrow is not a discharge — only
// a callee that calls, stores or returns it is.
func NewCancelfree() *Analyzer {
	ob := &obligation{
		flags: (*Program).cancelResultsOf,
		discarded: func(pass *Pass, as *ast.AssignStmt, call *ast.CallExpr) {
			pass.Reportf(as.Pos(), "cancel func of %s discarded with _; the context can never be released",
				pass.Prog.calleeName(pass.Pkg.Info, call))
		},
		leaked: func(pass *Pass, as *ast.AssignStmt, call *ast.CallExpr, id *ast.Ident) {
			pos := pass.Pkg.Fset.Position(as.Pos())
			// gofmt indents with tabs, so the column is the statement's depth.
			indent := strings.Repeat("\t", pos.Column-1)
			pass.report(Finding{
				Pos:  pos,
				Rule: pass.rule,
				Message: fmt.Sprintf("cancel func %q of %s is not called on every path to return (context leak)",
					id.Name, pass.Prog.calleeName(pass.Pkg.Info, call)),
				Fix: &Fix{
					Message: fmt.Sprintf("insert `defer %s()` after the context creation", id.Name),
					Edits:   []TextEdit{{Pos: as.End(), End: as.End(), NewText: "\n" + indent + "defer " + id.Name + "()"}},
				},
			})
		},
	}
	return &Analyzer{
		Name: "cancelfree",
		Doc:  "every context.WithCancel/WithTimeout/WithDeadline cancel func must be called on all exit paths",
		Run:  ob.run,
	}
}
