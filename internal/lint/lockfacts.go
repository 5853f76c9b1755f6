package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Abstract lock facts (DESIGN.md §16). The must-held analysis (lockflow.go)
// keys locks by their *printed receiver expression* — precise enough
// inside one function, meaningless across functions — so this file also
// names each lock by a universe-independent abstract identity, letting
// facts travel through FuncSummary and meet in a module-wide lock-order
// graph:
//
//	pkgpath.varname         package-level mutex variable
//	pkgpath.Type.field      struct-field mutex, keyed by the type that
//	                        declares the field (any selector depth: j.mu
//	                        and job.mu on the same type are one lock)
//	pkgpath.Type.Mutex      a promoted Lock through an embedded mutex
//
// A receiver expression that cannot be named this way (a local mutex
// value, a map entry, a pointer stored in an interface) yields identity
// "" and simply contributes no abstract fact — conservative for false
// positives, which is the house rule for every optlint analyzer.

// LockSite is one source position carried inside cached summaries.
type LockSite struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func (s LockSite) String() string {
	return fmt.Sprintf("%s:%d:%d", s.File, s.Line, s.Col)
}

// position converts the site to a token.Position for direct reporting.
func (s LockSite) position() token.Position {
	return token.Position{Filename: s.File, Line: s.Line, Column: s.Col}
}

// compare orders sites lexicographically by (file, line, col).
func (s LockSite) compare(o LockSite) int {
	if s.File != o.File {
		return strings.Compare(s.File, o.File)
	}
	if s.Line != o.Line {
		return s.Line - o.Line
	}
	return s.Col - o.Col
}

// LockAcq is one may-acquire fact: the function (or a callee reached via
// Chain) may acquire Lock in the caller's dynamic extent.
type LockAcq struct {
	Lock string `json:"lock"`
	// Write is true for Lock, false for RLock.
	Write bool `json:"write,omitempty"`
	// Site is the position of the acquiring Lock/RLock call itself.
	Site LockSite `json:"site"`
	// Chain lists the callee keys from the summarized function down to
	// the function containing the call at Site; empty for a direct
	// acquisition.
	Chain []string `json:"chain,omitempty"`
}

// describe renders "pkg.B at file:1:2 (via f → g)" for witness messages.
func (a LockAcq) describe() string {
	mode := ""
	if !a.Write {
		mode = " (read)"
	}
	via := ""
	if len(a.Chain) > 0 {
		via = " via " + strings.Join(a.Chain, " → ")
	}
	return fmt.Sprintf("%s%s at %s%s", a.Lock, mode, a.Site, via)
}

// compare gives the canonical preference order among facts for the same
// lock: shortest chain first, then site, then chain spelling — so the
// fixpoint always converges on one representative witness.
func (a LockAcq) compare(b LockAcq) int {
	if len(a.Chain) != len(b.Chain) {
		return len(a.Chain) - len(b.Chain)
	}
	if c := a.Site.compare(b.Site); c != 0 {
		return c
	}
	return strings.Compare(strings.Join(a.Chain, "→"), strings.Join(b.Chain, "→"))
}

// LockEdge is one acquisition-order fact: while Held (acquired in this
// function at HeldSite) is definitely held, the function may acquire
// Acq.Lock (directly or through Acq.Chain).
type LockEdge struct {
	Held     string   `json:"held"`
	HeldSite LockSite `json:"heldSite"`
	Acq      LockAcq  `json:"acq"`
}

// LockReport is a finding computed during summary construction (self
// deadlock, read-to-write upgrade) and kept in the cache so warm runs
// still report it; the lockorder analyzer replays it.
type LockReport struct {
	Site LockSite `json:"site"`
	Msg  string   `json:"msg"`
}

// Caps keeping summaries bounded under recursion and deterministic under
// the SCC fixpoint's DeepEqual convergence test.
const (
	maxLockChain = 6  // call-chain hops a lifted acquire may record
	maxLockFacts = 64 // Acquires / AcqEdges entries per function
)

// --- abstract identity resolution ------------------------------------------

// lockIdentOf names the mutex denoted by receiver expression e, "" when
// it has no stable abstract identity.
func lockIdentOf(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return lockIdentOf(info, x.X)
		}
	case *ast.StarExpr:
		return lockIdentOf(info, x.X)
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return pkgLevelVarIdent(v)
		}
	case *ast.SelectorExpr:
		// Qualified package-level var (otherpkg.Mu).
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			if id := pkgLevelVarIdent(v); id != "" {
				return id
			}
		}
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			return fieldPathIdent(s.Recv(), s.Index())
		}
	}
	return ""
}

// pkgLevelVarIdent names a package-level variable "pkgpath.name", "" for
// locals, parameters and fields.
func pkgLevelVarIdent(v *types.Var) string {
	if v == nil || v.IsField() || v.Pkg() == nil {
		return ""
	}
	if v.Parent() != v.Pkg().Scope() {
		return ""
	}
	return v.Pkg().Path() + "." + v.Name()
}

// fieldPathIdent walks a selection index path from recv and names the
// final field as "declaringPkg.DeclaringType.field". The declaring type
// is the *named struct that immediately holds the field*, so a mutex in
// an embedded type is one lock no matter which outer type it is reached
// through.
func fieldPathIdent(recv types.Type, index []int) string {
	t := recv
	id := ""
	for _, i := range index {
		for {
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
				continue
			}
			break
		}
		pkg, name, named := namedDef(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return ""
		}
		f := st.Field(i)
		if !named {
			return "" // anonymous struct owner: no stable name
		}
		id = pkg + "." + name + "." + f.Name()
		t = f.Type()
	}
	return id
}

// --- summary scan -----------------------------------------------------------

// scanLockFacts computes the abstract lock facts of fi: which locks the
// function may acquire (directly or through callees), which acquisition
// edges it creates ("acquires B while A is definitely held"), and the
// conflicts it proves outright (acquiring a lock already held — the
// self-deadlock and read-to-write-upgrade classes go/sync turns into a
// permanent park at run time).
func (p *Program) scanLockFacts(fi *FuncInfo, s *FuncSummary) {
	info := fi.Pkg.Info
	fset := fi.Pkg.Fset

	// Fast pre-pass: collect the body's direct mutex ops and summarized
	// callees so lock-free functions skip the dataflow entirely.
	type acqOp struct {
		call  *ast.CallExpr
		id    string
		write bool
	}
	var directAcqs []acqOp
	var calls []*ast.CallExpr
	hasLockOps := false
	lockBodyOps(fi.Decl.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if l, op := mutexOp(info, call); op != opNone {
			hasLockOps = true
			if op == opLock && l.id != "" {
				directAcqs = append(directAcqs, acqOp{call, l.id, l.write})
			}
			return
		}
		if key, ok := p.staticCallee(info, call); ok {
			if cs := p.Summaries[key]; cs != nil && len(cs.Acquires) > 0 {
				calls = append(calls, call)
			}
		}
	})

	acqs := map[string]LockAcq{}   // key: lock + mode
	edges := map[string]LockEdge{} // key: held + acquired lock
	var reports []LockReport

	site := func(pos token.Pos) LockSite {
		ps := fset.Position(pos)
		return LockSite{File: ps.Filename, Line: ps.Line, Col: ps.Column}
	}
	addAcq := func(a LockAcq) {
		key := a.Lock
		if a.Write {
			key += "/w"
		}
		if prev, ok := acqs[key]; !ok || a.compare(prev) < 0 {
			acqs[key] = a
		}
	}
	addEdge := func(e LockEdge) {
		key := e.Held + "\x00" + e.Acq.Lock
		if prev, ok := edges[key]; !ok || e.Acq.compare(prev.Acq) < 0 {
			edges[key] = e
		}
	}
	addReport := func(pos token.Pos, msg string) {
		reports = append(reports, LockReport{Site: site(pos), Msg: msg})
	}
	// conflict reports acquiring `a` while the same lock is already held
	// as `h`; a read hold re-entered by a read acquire is the one benign
	// combination.
	conflict := func(callPos token.Pos, a LockAcq, h heldLock) {
		if !a.Write && !h.write {
			return
		}
		heldMode := "held"
		if !h.write {
			heldMode = "read-held"
		}
		switch {
		case len(a.Chain) > 0:
			addReport(callPos, fmt.Sprintf("call acquires %s while the same lock is already %s (acquired at %s): guaranteed self-deadlock", a.describe(), heldMode, site(h.pos)))
		case a.Write && !h.write:
			addReport(callPos, fmt.Sprintf("%s of %s upgrades a read hold (RLock at %s) to a write hold: guaranteed self-deadlock", "Lock", a.Lock, site(h.pos)))
		case a.Write:
			addReport(callPos, fmt.Sprintf("Lock of %s while the same lock is already held (acquired at %s): guaranteed self-deadlock", a.Lock, site(h.pos)))
		default:
			addReport(callPos, fmt.Sprintf("RLock of %s while the same lock is write-held (Lock at %s): guaranteed self-deadlock", a.Lock, site(h.pos)))
		}
	}

	// Lifted acquires flow in from callees whether or not any lock is held
	// here; edges and conflicts additionally need the must-held sets, in
	// identity space.
	heldFor := func(call *ast.CallExpr) map[string]heldLock {
		if !hasLockOps {
			return nil
		}
		return fi.held().heldAt(call).byIdentity()
	}

	for _, a := range directAcqs {
		fact := LockAcq{Lock: a.id, Write: a.write, Site: site(a.call.Pos())}
		addAcq(fact)
		for heldID, h := range heldFor(a.call) {
			if heldID == a.id {
				conflict(a.call.Pos(), fact, h)
				continue
			}
			addEdge(LockEdge{Held: heldID, HeldSite: site(h.pos), Acq: fact})
		}
	}
	for _, call := range calls {
		key, _ := p.staticCallee(info, call)
		cs := p.Summaries[key]
		held := heldFor(call)
		for _, a := range cs.Acquires {
			if len(a.Chain)+1 > maxLockChain {
				continue // recursion guard: deep chains stop propagating
			}
			lifted := LockAcq{
				Lock:  a.Lock,
				Write: a.Write,
				Site:  a.Site,
				Chain: append([]string{key}, a.Chain...),
			}
			addAcq(lifted)
			for heldID, h := range held {
				if heldID == a.Lock {
					conflict(call.Pos(), lifted, h)
					continue
				}
				addEdge(LockEdge{Held: heldID, HeldSite: site(h.pos), Acq: lifted})
			}
		}
	}

	s.Acquires = canonicalAcqs(acqs)
	s.AcqEdges = canonicalEdges(edges)
	sort.Slice(reports, func(i, j int) bool {
		a, b := reports[i], reports[j]
		if c := a.Site.compare(b.Site); c != 0 {
			return c < 0
		}
		return a.Msg < b.Msg
	})
	if len(reports) > maxLockFacts {
		reports = reports[:maxLockFacts]
	}
	s.LockReports = reports
}

// canonicalAcqs orders and bounds an acquire-fact map.
func canonicalAcqs(m map[string]LockAcq) []LockAcq {
	if len(m) == 0 {
		return nil
	}
	out := make([]LockAcq, 0, len(m))
	for _, a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Lock != b.Lock {
			return a.Lock < b.Lock
		}
		if a.Write != b.Write {
			return b.Write // write facts first
		}
		return a.compare(b) < 0
	})
	if len(out) > maxLockFacts {
		out = out[:maxLockFacts]
	}
	return out
}

// canonicalEdges orders and bounds an edge map.
func canonicalEdges(m map[string]LockEdge) []LockEdge {
	if len(m) == 0 {
		return nil
	}
	out := make([]LockEdge, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Held != b.Held {
			return a.Held < b.Held
		}
		if a.Acq.Lock != b.Acq.Lock {
			return a.Acq.Lock < b.Acq.Lock
		}
		return a.Acq.compare(b.Acq) < 0
	})
	if len(out) > maxLockFacts {
		out = out[:maxLockFacts]
	}
	return out
}

// lockBodyOps visits every node of body outside nested function literals,
// deferred calls, and go statements — the regions whose lock operations do
// not execute within the function's own locked extent at that point.
func lockBodyOps(body *ast.BlockStmt, visit func(n ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		}
		if n == nil {
			return true
		}
		visit(n)
		return true
	})
}
