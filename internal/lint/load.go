// Package lint is a dependency-free static-analysis framework for this
// repository, built on the standard library's go/parser, go/ast and
// go/types only (no golang.org/x/tools, keeping the module zero-dep).
//
// OPT's correctness rests on discipline the compiler cannot check: the
// macro-level overlap between the internal-triangulation main thread and
// the external-triangulation callback thread stays deadlock- and leak-free
// only if callbacks never block while holding scheduler locks, contexts
// thread through every layer, and all disk access funnels through the
// designated I/O packages. The analyzers in this package enforce those
// invariants mechanically on every tree; cmd/optlint is the driver.
//
// The Loader typechecks every module package from source, in dependency
// order, importing standard-library dependencies from compiler export data
// located via `go list -export`. Test files are included in each analysis
// unit (in-package tests join their package; external _test packages form
// their own unit), so the analyzers see test helpers too.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir          string
	ImportPath   string
	Name         string
	Standard     bool
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	ForTest      string
	Module       *struct{ Path, Dir string }
}

// Package is one type-checked analysis unit: a module package together
// with its in-package test files, or an external _test package.
type Package struct {
	// Path is the unit's import path; external test packages carry the
	// "_test" suffix.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	// IsTest parallels Files and marks _test.go files.
	IsTest []bool
	Types  *types.Package
	Info   *types.Info
}

// Loader loads and typechecks packages of one module.
type Loader struct {
	// fset is shared by every parsed file, so finding positions from
	// different packages are comparable.
	fset *token.FileSet

	openExport func(path string) (io.ReadCloser, error)
	modulePath string
	dir        string
	mods       map[string]*listPkg       // module packages by import path
	export     map[string]string         // non-module import path → export data file
	imported   map[string]*types.Package // typechecked importable module packages
	loading    map[string]bool           // cycle detection
	gc         types.Importer
	targets    []string // import paths selected by the load patterns
}

// listJSONFields keeps `go list` output limited to what listPkg decodes.
const listJSONFields = "Dir,ImportPath,Name,Standard,Export,GoFiles,TestGoFiles,XTestGoFiles,ForTest,Module"

// NewLoader enumerates the module rooted at (or containing) dir with
// `go list` and prepares typechecking for the packages matching patterns
// (default "./..."). openExport opens a compiler export-data file by path;
// the caller supplies it so this package performs no direct file I/O of
// its own (the same confinement optlint enforces on the rest of the tree).
func NewLoader(dir string, openExport func(path string) (io.ReadCloser, error), patterns ...string) (*Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l := &Loader{
		fset:       token.NewFileSet(),
		openExport: openExport,
		dir:        dir,
		mods:       map[string]*listPkg{},
		export:     map[string]string{},
		imported:   map[string]*types.Package{},
		loading:    map[string]bool{},
	}
	// One deep run collects every package in the dependency closure —
	// including test-only dependencies — with export data built for the
	// non-module ones.
	deep := append([]string{"list", "-deps", "-test", "-export", "-json=" + listJSONFields}, patterns...)
	out, err := runGo(dir, deep...)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			continue // synthesized test variants; base entries carry the files
		}
		if p.Module != nil && !p.Standard {
			if l.modulePath == "" {
				l.modulePath = p.Module.Path
			}
			l.mods[p.ImportPath] = &p
			continue
		}
		if p.Export != "" {
			l.export[p.ImportPath] = p.Export
		}
	}
	if l.modulePath == "" {
		return nil, fmt.Errorf("lint: no module packages matched %v in %s", patterns, dir)
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.export[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return l.openExport(file)
	})
	// A shallow run resolves which of the loaded packages the patterns
	// actually name (the deep run drags in dependencies).
	flat, err := runGo(dir, append([]string{"list"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(strings.TrimSpace(flat), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			if _, ok := l.mods[line]; ok {
				l.targets = append(l.targets, line)
			}
		}
	}
	sort.Strings(l.targets)
	return l, nil
}

// runGo executes the go tool in dir and returns its stdout.
func runGo(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		detail := ""
		if ee, ok := err.(*exec.ExitError); ok {
			detail = ": " + strings.TrimSpace(string(ee.Stderr))
		}
		return "", fmt.Errorf("lint: go %s: %w%s", strings.Join(args[:min(2, len(args))], " "), err, detail)
	}
	return string(out), nil
}

// ModulePath returns the module path of the loaded module.
func (l *Loader) ModulePath() string { return l.modulePath }

// Load typechecks every package selected by the loader's patterns and
// returns the analysis units in deterministic order: each package with its
// in-package test files, plus a separate unit per external _test package.
func (l *Loader) Load() ([]*Package, error) {
	var out []*Package
	for _, path := range l.targets {
		lp := l.mods[path]
		names := append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)
		pkg, err := l.check(path, lp.Dir, names)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
		if len(lp.XTestGoFiles) > 0 {
			xp, err := l.check(path+"_test", lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			if xp != nil {
				out = append(out, xp)
			}
		}
	}
	return out, nil
}

// LoadDir typechecks the package in dir (every .go file, sorted by name)
// under the given import path. It serves the analyzer fixture tests, which
// live in testdata directories the go tool does not enumerate. The checked
// package becomes importable by later LoadDir calls, so multi-package
// fixtures (a helper package plus the package under test) can reference
// each other when loaded dependency-first.
func (l *Loader) LoadDir(dir, importPath string, fileNames []string) (*Package, error) {
	sort.Strings(fileNames)
	pkg, err := l.check(importPath, dir, fileNames)
	if err == nil && pkg != nil {
		l.imported[importPath] = pkg.Types
	}
	return pkg, err
}

// importable returns the exported type information for path: module
// packages are typechecked from source (without test files), everything
// else is read from compiler export data.
func (l *Loader) importable(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.imported[path]; ok {
		return p, nil
	}
	if lp, ok := l.mods[path]; ok {
		if l.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		pkg, err := l.check(path, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: package %q has no Go files", path)
		}
		l.imported[path] = pkg.Types
		return pkg.Types, nil
	}
	if _, ok := l.export[path]; ok {
		return l.gc.Import(path)
	}
	return nil, fmt.Errorf("lint: unknown import %q (not in module, no export data)", path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check parses and typechecks one unit of files from dir.
func (l *Loader) check(importPath, dir string, names []string) (*Package, error) {
	if len(names) == 0 {
		return nil, nil
	}
	p := &Package{Path: importPath, Fset: l.fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		p.Files = append(p.Files, f)
		p.IsTest = append(p.IsTest, strings.HasSuffix(name, "_test.go"))
	}
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var terrs []error
	conf := types.Config{
		Importer: importerFunc(l.importable),
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	p.Types, _ = conf.Check(importPath, l.fset, p.Files, p.Info)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s (first of %d): %v", importPath, len(terrs), terrs[0])
	}
	return p, nil
}
