package lint_test

import (
	"strings"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/lint"
)

// Summary-layer tests against the real tree: the facts the interprocedural
// analyzers depend on must hold for the actual code, not just fixtures.

const (
	keyDrain      = "(github.com/optlab/opt/internal/ssd.AsyncDevice).Drain"
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

// TestRealTreeSummaries pins one fact of each kind the summaries carry, on
// the real tree: AsyncDevice.Drain always blocks (lockheld reports a
// caller that holds a mutex across it), and Pool.Insert acquires the
// pool's mutex (lockorder's graph has it as a node).
func TestRealTreeSummaries(t *testing.T) {
	_, prog := loadModule(t)
	drain := prog.Summaries[keyDrain]
	if drain == nil {
		t.Fatalf("no summary for %s", keyDrain)
	}
	if !drain.Blocks {
		t.Errorf("%s Blocks = false, want true (it waits for every pending callback)", keyDrain)
	}
	ins := prog.Summaries[keyPoolInsert]
	if ins == nil {
		t.Fatalf("no summary for %s", keyPoolInsert)
	}
	var locks []string
	for _, a := range ins.Acquires {
		locks = append(locks, a.Lock)
	}
	if len(locks) != 1 || !strings.HasSuffix(locks[0], ".mu") {
		t.Errorf("%s acquires %v, want the pool's mu alone", keyPoolInsert, locks)
	}
}

// TestRealTreeClean runs the shipped rule set over the whole module, as
// CI's lint step does: the tree has no finding.
func TestRealTreeClean(t *testing.T) {
	pkgs, _ := loadModule(t)
	for _, f := range lint.Analyze(pkgs, lint.Default("github.com/optlab/opt")) {
		t.Errorf("finding on the real tree: %s", f)
	}
}
