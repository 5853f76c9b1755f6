package lint_test

import (
	"go/types"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/lint"
)

var (
	moduleOnce sync.Once
	modulePkgs []*lint.Package
	moduleErr  error
)

// loadModule typechecks every analysis unit of the repository once.
func loadModule(t *testing.T) []*lint.Package {
	t.Helper()
	moduleOnce.Do(func() { modulePkgs, moduleErr = fixtureLoader(t).Load() })
	if moduleErr != nil {
		t.Fatalf("loading module: %v", moduleErr)
	}
	return modulePkgs
}

// TestRealTreeClean runs the shipped rule set over the whole module, as
// CI's lint step does: the tree has no finding.
func TestRealTreeClean(t *testing.T) {
	for _, f := range lint.Analyze(loadModule(t), lint.Default("github.com/optlab/opt")) {
		t.Errorf("finding on the real tree: %s", f)
	}
}

// TestProductMutexesAreWitnessed: every mutex field of a product type is a
// lockdep.Mutex, so the optpoison witness sees every lock the product
// nests. A sync.Mutex field would lock the same in a plain build and
// escape the order check silently. Examples and the test helpers in
// internal/testutil are not product code.
func TestProductMutexesAreWitnessed(t *testing.T) {
	const module = "github.com/optlab/opt"
	skip := []string{module + "/examples/", module + "/internal/testutil", module + "/internal/lockdep"}
	checked := 0
	for _, pkg := range loadModule(t) {
		if strings.HasSuffix(pkg.Path, "_test") || slices.ContainsFunc(skip, func(p string) bool { return strings.HasPrefix(pkg.Path, p) }) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || strings.HasSuffix(pkg.Fset.Position(tn.Pos()).Filename, "_test.go") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				switch f.Type().String() {
				case "sync.Mutex", "sync.RWMutex":
					t.Errorf("%s: %s.%s is a %s; declare it a lockdep.Mutex[%s]", pkg.Fset.Position(f.Pos()), name, f.Name(), f.Type(), name)
				}
				if named, ok := f.Type().(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == module+"/internal/lockdep" {
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no lockdep.Mutex field found: the scan exercises nothing")
	}
	t.Logf("%d lockdep.Mutex fields", checked)
}
