package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"strings"
	"sync"
)

// Finding is one rule violation at a source position. Fix, when non-nil,
// is a mechanical remediation `optlint -fix` can apply; it never appears
// in the -json schema.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
	Fix     *Fix
}

// String renders the driver's line format: file:line:col: [rule] message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Pkg *Package
	// Prog is the whole-module view (call graph + per-function summaries)
	// shared by every package's pass; analyzers read it, never write it.
	Prog   *Program
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

// ReportAt records a finding at an already-resolved position — the shape
// used by analyzers replaying facts from summaries, which carry positions
// rather than token.Pos values.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	p.report(Finding{Pos: pos, Rule: p.rule, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one registered rule.
type Analyzer struct {
	// Name is the rule identifier printed in findings.
	Name string
	// Doc is a one-line description for -help style listings.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Analyze runs every analyzer over every package and returns the findings
// sorted by position. The whole-module Program (call graph + summaries) is
// built first so every pass sees interprocedural facts.
func Analyze(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return AnalyzeParallel(pkgs, analyzers, 1)
}

// AnalyzeParallel is Analyze with the per-package analyzer runs fanned out
// over a bounded worker pool. Findings are deterministic regardless of
// workers: results are collected per package and sorted by position at the
// end, and the shared Program is immutable once built.
func AnalyzeParallel(pkgs []*Package, analyzers []*Analyzer, workers int) []Finding {
	return AnalyzeProgram(BuildProgram(pkgs), pkgs, analyzers, workers)
}

// AnalyzeProgram runs the analyzers over pkgs against an already-built
// Program — the entry point for drivers that also use the Program itself
// (the lock-order graph dump).
func AnalyzeProgram(prog *Program, pkgs []*Package, analyzers []*Analyzer, workers int) []Finding {
	if workers < 1 {
		workers = 1
	}
	results := make([][]Finding, len(pkgs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		if pkg == nil {
			continue
		}
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var found []Finding
			for _, a := range analyzers {
				a.Run(&Pass{Pkg: pkg, Prog: prog, rule: a.Name, report: func(f Finding) { found = append(found, f) }})
			}
			results[i] = found
		}(i, pkg)
	}
	wg.Wait()
	var out []Finding
	for _, r := range results {
		out = append(out, r...)
	}
	sortFindings(out)
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

// WriteText writes one finding per line in file:line:col: [rule] message
// form.
func WriteText(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonFinding is the stable -json schema for editor/tooling integration.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// WriteJSON writes the findings as a JSON array of
// {file, line, col, rule, message} objects (an empty array when clean),
// followed by a newline.
func WriteJSON(w io.Writer, findings []Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Rule: f.Rule, Message: f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
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
