package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the driver's line format: file:line:col: [rule] message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Pkg    *Package
	rule   string
	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one registered rule.
type Analyzer struct {
	// Name is the rule identifier printed in findings.
	Name string
	// Doc is the one-line description README's analyzer table repeats.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Analyze runs every analyzer over every package and returns the findings
// sorted by position.
func Analyze(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		if pkg == nil {
			continue
		}
		for _, a := range analyzers {
			a.Run(&Pass{Pkg: pkg, rule: a.Name, report: func(f Finding) { out = append(out, f) }})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}

// Relativize rewrites finding filenames relative to base where possible,
// for readable driver output.
func Relativize(findings []Finding, base string) {
	for i := range findings {
		if rel, err := filepath.Rel(base, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = rel
		}
	}
}

// pathWithin reports whether import path p equals prefix or lies beneath
// it. An external test package ("pkg_test") counts as within its base
// package's path.
func pathWithin(p, prefix string) bool {
	p = strings.TrimSuffix(p, "_test")
	if p == prefix {
		return true
	}
	return strings.HasPrefix(p, prefix+"/")
}

// anyPathWithin reports whether p lies within any of the prefixes.
func anyPathWithin(p string, prefixes []string) bool {
	for _, pre := range prefixes {
		if pathWithin(p, pre) {
			return true
		}
	}
	return false
}

// parents builds a child→parent node map for the subtree rooted at root.
func parents(root ast.Node) map[ast.Node]ast.Node {
	m := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			m[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return m
}

// namedDef resolves t (after pointer indirection) to its defining package
// path and type name; ok is false for unnamed types.
func namedDef(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// methodOn reports whether fn is a method and resolves its receiver's
// defining package path and type name.
func methodOn(fn *types.Func) (pkgPath, name string, ok bool) {
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	return namedDef(sig.Recv().Type())
}

// funcFor resolves the called function object of a call expression, if the
// callee is an identifier or selector (not a conversion or func literal).
func funcFor(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, false
	}
	fn, ok := info.Uses[id].(*types.Func)
	return fn, ok
}
