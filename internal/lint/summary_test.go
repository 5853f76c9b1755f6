package lint_test

import (
	"reflect"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/lint"
)

// Summary-layer tests against the real tree: the facts the interprocedural
// analyzers depend on must hold for the actual core/buffer code, not just
// fixtures.

const (
	keyGetWork    = "(github.com/optlab/opt/internal/core.Ctx).getWork"
	keyPutWork    = "(github.com/optlab/opt/internal/core.Ctx).putWork"
	keyPoolInsert = "(github.com/optlab/opt/internal/buffer.Pool).Insert"
)

var (
	moduleOnce sync.Once
	modulePkgs []*lint.Package
	moduleProg *lint.Program
	moduleErr  error
)

// loadModule typechecks every analysis unit of the repository once and
// builds the whole-module Program, shared across the summary tests.
func loadModule(t *testing.T) ([]*lint.Package, *lint.Program) {
	t.Helper()
	moduleOnce.Do(func() {
		modulePkgs, moduleErr = fixtureLoader(t).Load()
		if moduleErr == nil {
			moduleProg = lint.BuildProgram(modulePkgs)
		}
	})
	if moduleErr != nil {
		t.Fatalf("loading module: %v", moduleErr)
	}
	return modulePkgs, moduleProg
}

// TestRealTreeSummaries pins the cross-function facts the acceptance bar
// names: getWork owns its result through the type-asserted sync.Pool
// Get (the transfer per-function v2 could not prove), putWork releases
// its argument, and Pool.Insert stores the chunk it is given.
func TestRealTreeSummaries(t *testing.T) {
	_, prog := loadModule(t)
	get := prog.Summaries[keyGetWork]
	if get == nil {
		t.Fatalf("no summary for %s", keyGetWork)
	}
	if len(get.OwnedResults) != 1 || !get.OwnedResults[0] {
		t.Errorf("%s OwnedResults = %v, want [true] (sync.Pool Get behind a type assertion transfers ownership)",
			keyGetWork, get.OwnedResults)
	}
	put := prog.Summaries[keyPutWork]
	if put == nil {
		t.Fatalf("no summary for %s", keyPutWork)
	}
	if len(put.Params) != 2 || !put.Params[1].Released {
		t.Errorf("%s Params = %+v, want parameter w Released via sync.Pool Put", keyPutWork, put.Params)
	}
	ins := prog.Summaries[keyPoolInsert]
	if ins == nil {
		t.Fatalf("no summary for %s", keyPoolInsert)
	}
	if len(ins.Params) != 2 || !ins.Params[1].Escapes {
		t.Errorf("%s Params = %+v, want the chunk parameter Escapes (stored in the pool)", keyPoolInsert, ins.Params)
	}
}

// TestCoreDecodePathClean pins the other half of the acceptance bar: the
// real decode → repoint → consume → recycle cycle in internal/core passes
// poolpair with zero findings and zero suppressions.
func TestCoreDecodePathClean(t *testing.T) {
	pkgs, prog := loadModule(t)
	var core []*lint.Package
	for _, p := range pkgs {
		if p.Path == "github.com/optlab/opt/internal/core" {
			core = append(core, p)
		}
	}
	if len(core) == 0 {
		t.Fatal("no core package loaded")
	}
	an := []*lint.Analyzer{lint.NewPoolpair("github.com/optlab/opt/internal/buffer")}
	for _, f := range lint.AnalyzeProgram(prog, core, an, 2) {
		t.Errorf("unexpected finding on the core decode path: %s", f)
	}
}

// TestAnalyzeParallelDeterminism: identical findings whatever the worker
// count, across repeated runs — the bar for parallelizing the driver.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	pkgs := []*lint.Package{
		loadFixture(t, "interproc", "helper"),
		loadFixture(t, "interproc", "bad"),
		loadFixture(t, "poolpair", "bad"),
	}
	an := []*lint.Analyzer{
		lint.NewPoolpair("github.com/optlab/opt/internal/buffer"),
		lint.NewCondguard(),
	}
	render := func(fs []lint.Finding) []string {
		out := make([]string, len(fs))
		for i, f := range fs {
			out[i] = f.String()
		}
		return out
	}
	base := render(lint.AnalyzeParallel(pkgs, an, 1))
	if len(base) == 0 {
		t.Fatal("determinism test needs a non-empty finding set")
	}
	for _, workers := range []int{2, 8} {
		for round := 0; round < 3; round++ {
			if got := render(lint.AnalyzeParallel(pkgs, an, workers)); !reflect.DeepEqual(base, got) {
				t.Fatalf("workers=%d round=%d findings diverge:\nbase=%v\ngot =%v", workers, round, base, got)
			}
		}
	}
}
