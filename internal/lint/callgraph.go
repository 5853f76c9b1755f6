package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the whole-module half of the analysis framework
// (DESIGN.md §13): it indexes every function declaration of the analysis
// units into a Program, resolves a static call graph over them, and orders
// the strongly connected components bottom-up so summary.go can compute
// compositional per-function summaries with callee facts always available
// before (or, inside a cycle, alongside) their callers.
//
// Identity is the central design problem. The loader typechecks every
// analysis unit independently, so the same function is represented by
// *different* *types.Func objects in different units (a package imported
// by another is re-checked into a separate types universe). Pointer
// identity therefore cannot name a function across packages; instead every
// function is keyed by a universe-independent string:
//
//	pkgpath.Func                  top-level function
//	(pkgpath.Type).Method         method (pointer and value receivers alike)

// FuncInfo is one analyzed function declaration with its body.
type FuncInfo struct {
	Key  string
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	callees []string  // sorted unique callee keys within the program
	graph   *cfg      // lazily built body CFG, shared by the summary passes
	flow    *lockFlow // lazily run must-held analysis over graph
}

// cfg returns the function's control-flow graph, building it on first use.
func (fi *FuncInfo) cfg() *cfg {
	if fi.graph == nil {
		fi.graph = buildCFG(fi.Decl.Body, fi.Pkg.Info)
	}
	return fi.graph
}

// held returns the function's must-held lock sets, analyzing on first use.
func (fi *FuncInfo) held() *lockFlow {
	if fi.flow == nil {
		fi.flow = mustHeld(fi.cfg(), fi.Pkg.Info)
	}
	return fi.flow
}

// Program is the module-wide view the interprocedural analyzers share: an
// index of function declarations, a call graph over them, and one summary
// per function (computed bottom-up over SCCs).
type Program struct {
	// ByKey indexes every analyzed function declaration.
	ByKey map[string]*FuncInfo
	// Summaries holds one FuncSummary per ByKey entry.
	Summaries map[string]*FuncSummary

	methods map[string]map[string]string // "pkgpath.Type" → method name → key
	order   [][]string                   // SCCs of the call graph, callees first

	// Module-wide lock-order graph (lockorder.go), the union of the
	// summaries' edge facts.
	lockAdj    map[string][]string
	lockWit    map[[2]string]lockWitness
	lockCycles []lockCycle
}

// maxDispatch bounds how many concrete implementations an interface call
// may fan out to before the callee set is treated as unknown.
const maxDispatch = 8

// funcKey names fn independently of its types universe; "" when fn cannot
// be keyed (nil, unnamed receiver).
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		pkg, name, ok := namedDef(recv.Type())
		if !ok {
			return ""
		}
		return "(" + pkg + "." + name + ")." + fn.Name()
	}
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// BuildProgram indexes pkgs, resolves the call graph, and computes every
// function summary bottom-up.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		ByKey:     map[string]*FuncInfo{},
		Summaries: map[string]*FuncSummary{},
		methods:   map[string]map[string]string{},
	}
	for _, pkg := range pkgs {
		if pkg == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(fn)
				if key == "" {
					continue
				}
				if _, dup := p.ByKey[key]; dup {
					continue // first unit wins (base package vs its test unit)
				}
				p.ByKey[key] = &FuncInfo{Key: key, Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	for key, fi := range p.ByKey {
		if pkg, typ, ok := methodOn(fi.Fn); ok {
			id := pkg + "." + typ
			if p.methods[id] == nil {
				p.methods[id] = map[string]string{}
			}
			p.methods[id][fi.Fn.Name()] = key
		}
	}
	for _, fi := range p.ByKey {
		p.resolveCallees(fi)
	}
	p.order = p.sccOrder()
	p.computeSummaries()
	p.buildLockGraph()
	return p
}

// resolveCallees records fi's outgoing edges: every statically resolved
// call target anywhere in the body (nested literals included — they run
// within the function's dynamic extent often enough that grouping them
// into the caller's SCC is the sound choice for fixpoint ordering).
func (p *Program) resolveCallees(fi *FuncInfo) {
	seen := map[string]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, key := range p.mayCallees(fi.Pkg.Info, call) {
			if !seen[key] {
				seen[key] = true
				fi.callees = append(fi.callees, key)
			}
		}
		return true
	})
	sort.Strings(fi.callees)
}

// staticCallee resolves call to a single in-program target: a top-level
// function or a method invoked on a concrete (non-interface) receiver.
// Interface dispatch, function values, builtins and out-of-program callees
// all return ok=false.
func (p *Program) staticCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, ok := funcFor(info, call)
	if !ok {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return "", false
		}
	}
	key := funcKey(fn)
	if _, inProg := p.ByKey[key]; !inProg {
		return "", false
	}
	return key, true
}

// mayCallees returns the candidate in-program targets of call: the static
// target when there is one, or the bounded set of concrete methods that
// may implement an interface call (matched structurally by method-name
// sets, since types.Implements cannot compare named types across the
// loader's per-unit type universes). An unbounded or empty set is nil.
func (p *Program) mayCallees(info *types.Info, call *ast.CallExpr) []string {
	if key, ok := p.staticCallee(info, call); ok {
		return []string{key}
	}
	fn, ok := funcFor(info, call)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	need := make([]string, 0, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		need = append(need, iface.Method(i).Name())
	}
	var out []string
	for _, tbl := range p.methods {
		impl := true
		for _, name := range need {
			if tbl[name] == "" {
				impl = false
				break
			}
		}
		if impl && tbl[fn.Name()] != "" {
			out = append(out, tbl[fn.Name()])
		}
	}
	if len(out) == 0 || len(out) > maxDispatch {
		return nil
	}
	sort.Strings(out)
	return out
}

// sccOrder returns the call graph's strongly connected components in
// reverse topological order: every edge leaving an SCC points at an earlier
// component, so processing in order sees callee summaries before caller
// summaries.
func (p *Program) sccOrder() [][]string {
	keys := make([]string, 0, len(p.ByKey))
	for k := range p.ByKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return tarjanSCC(keys, func(v string) []string { return p.ByKey[v].callees })
}

// tarjanSCC runs Tarjan's algorithm over nodes and their succ edges — the
// call graph here, the lock-order graph in lockorder.go. Components come
// out successors-first; with sorted nodes and sorted succ lists the
// component sequence and the (sorted) keys inside each are deterministic.
func tarjanSCC(nodes []string, succ func(string) []string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var order [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = len(index)
		low[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			order = append(order, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return order
}
