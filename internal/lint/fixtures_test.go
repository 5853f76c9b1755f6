package lint_test

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/lint"
)

// The fixture packages under testdata/ carry `// want "regex"` comments on
// every line where the analyzer under test must report, and nothing
// anywhere else. Each analyzer is exercised on a violating package (every
// want line fires, nothing extra) and a conforming one (zero findings).

var (
	loaderOnce   sync.Once
	sharedLoader *lint.Loader
	loaderErr    error
)

// fixtureLoader builds one Loader against the repository root, shared by
// every fixture test: the deep `go list -export` walk is the expensive
// part, and fixtures only add small source-checked units on top of it.
func fixtureLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loaderErr = err
			return
		}
		open := func(path string) (io.ReadCloser, error) { return os.Open(path) }
		sharedLoader, loaderErr = lint.NewLoader(root, open, "./...")
	})
	if loaderErr != nil {
		t.Fatalf("building fixture loader: %v", loaderErr)
	}
	return sharedLoader
}

// loadFixture typechecks testdata/<rule>/<variant> under the import path
// fixture/<rule>/<variant>.
func loadFixture(t *testing.T, rule, variant string) *lint.Package {
	t.Helper()
	return loadFixtureAs(t, rule, variant, "fixture/"+rule+"/"+variant)
}

// loadFixtureAs typechecks testdata/<rule>/<variant> under importPath.
func loadFixtureAs(t *testing.T, rule, variant, importPath string) *lint.Package {
	t.Helper()
	dir := filepath.Join("testdata", rule, variant)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	pkg, err := fixtureLoader(t).LoadDir(dir, importPath, names)
	if err != nil {
		t.Fatalf("loading fixture %s/%s: %v", rule, variant, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s/%s has no Go files", rule, variant)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// wantAt extracts the expected-finding regexps from every fixture file,
// keyed by "<path>:<line>".
func wantAt(t *testing.T, dir string) map[string]*regexp.Regexp {
	t.Helper()
	wants := map[string]*regexp.Regexp{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("opening fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			pattern, err := strconv.Unquote(`"` + m[1] + `"`)
			if err != nil {
				t.Fatalf("%s:%d: bad want string: %v", path, line, err)
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", path, line, err)
			}
			wants[fmt.Sprintf("%s:%d", path, line)] = re
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning fixture: %v", err)
		}
		_ = f.Close()
	}
	return wants
}

// diffWant fails the test unless the findings and the want comments agree
// line for line.
func diffWant(t *testing.T, dir string, findings []lint.Finding) {
	t.Helper()
	wants := wantAt(t, dir)
	matched := map[string]bool{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		re, expected := wants[key]
		if !expected {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if got := fmt.Sprintf("[%s] %s", f.Rule, f.Message); !re.MatchString(got) {
			t.Errorf("%s: finding %q does not match want %q", key, got, re)
			continue
		}
		matched[key] = true
	}
	for key, re := range wants {
		if !matched[key] {
			t.Errorf("%s: expected a finding matching %q, got none", key, re)
		}
	}
}

func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		rule     string
		analyzer *lint.Analyzer
	}{
		{"ctxflow", lint.NewCtxflow()},
		{"lockheld", lint.NewLockheld([]string{"fixture/lockheld"})},
		{"ioconfine", lint.NewIoconfine([]string{"fixture/other"})},
		{"closecheck", lint.NewClosecheck([]string{"fixture/closecheck"})},
		{"eventkind", lint.NewEventkind("github.com/optlab/opt/internal/events")},
		{"cancelfree", lint.NewCancelfree()},
		{"poolpair", lint.NewPoolpair("github.com/optlab/opt/internal/buffer")},
		{"atomicfield", lint.NewAtomicfield()},
		{"condguard", lint.NewCondguard()},
		{"gojoin", lint.NewGojoin()},
		{"lockorder", lint.NewLockorder()},
		{"chanflow", lint.NewChanflow(nil)},
		{"waitjoin", lint.NewWaitjoin()},
	}
	for _, tc := range cases {
		for _, variant := range []string{"bad", "ok"} {
			t.Run(tc.rule+"/"+variant, func(t *testing.T) {
				pkg := loadFixture(t, tc.rule, variant)
				findings := lint.Analyze([]*lint.Package{pkg}, []*lint.Analyzer{tc.analyzer})
				diffWant(t, filepath.Join("testdata", tc.rule, variant), findings)
			})
		}
	}
}

// TestInterprocFixtures exercises the summary layer across package
// boundaries: the helper package's summaries (ownership transfer, pure
// borrow, transitive requires-held) drive findings — and
// silence — in the packages that call it. The helper itself must stay
// clean, which the shared diffWant enforces since its files carry no want
// comments.
func TestInterprocFixtures(t *testing.T) {
	helper := loadFixture(t, "interproc", "helper")
	analyzers := []*lint.Analyzer{
		lint.NewPoolpair("github.com/optlab/opt/internal/buffer"),
		lint.NewCondguard(),
	}
	for _, variant := range []string{"bad", "ok"} {
		t.Run(variant, func(t *testing.T) {
			pkg := loadFixture(t, "interproc", variant)
			findings := lint.Analyze([]*lint.Package{helper, pkg}, analyzers)
			diffWant(t, filepath.Join("testdata", "interproc", variant), findings)
		})
	}
}

// TestLockorderCrossPackage proves the lock-order graph spans package
// boundaries: the cycle closes between fixture/lockorder/multi and
// fixture/lockorder/multihelper, and the witness chain names the
// acquisition site inside the helper package plus the call (LockShared)
// that reaches it. The helper package itself must stay silent — the
// cycle is owned by the anchor witness in multi.
func TestLockorderCrossPackage(t *testing.T) {
	helper := loadFixture(t, "lockorder", "multihelper")
	pkg := loadFixture(t, "lockorder", "multi")
	findings := lint.Analyze([]*lint.Package{helper, pkg}, []*lint.Analyzer{lint.NewLockorder()})
	diffWant(t, filepath.Join("testdata", "lockorder", "multi"), findings)
}

// TestConcurrencyDeterminism pins the acceptance bar for the v4 rules:
// byte-identical output whatever the -parallel width. The fixture mix
// exercises every new analyzer plus the cross-package cycle, so the
// precomputed-in-Program reporting paths race against per-package ones.
func TestConcurrencyDeterminism(t *testing.T) {
	pkgs := []*lint.Package{
		loadFixture(t, "lockorder", "multihelper"),
		loadFixture(t, "lockorder", "multi"),
		loadFixture(t, "lockorder", "bad"),
		loadFixture(t, "chanflow", "bad"),
		loadFixture(t, "lockheld", "bad"),
		loadFixture(t, "waitjoin", "bad"),
	}
	strict := []string{"fixture/lockheld"}
	analyzers := []*lint.Analyzer{lint.NewLockorder(), lint.NewLockheld(strict), lint.NewChanflow(strict), lint.NewWaitjoin()}
	var base string
	for _, workers := range []int{1, 2, 8} {
		var out strings.Builder
		findings := lint.AnalyzeParallel(pkgs, analyzers, workers)
		if err := lint.WriteText(&out, findings); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if out.Len() == 0 {
			t.Fatalf("-parallel %d produced no findings at all", workers)
		}
		if base == "" {
			base = out.String()
			continue
		}
		if out.String() != base {
			t.Errorf("-parallel %d output differs from -parallel 1:\n%s\nvs\n%s", workers, out.String(), base)
		}
	}
}

// TestSuppression runs the suppress fixtures through the full
// Analyze→ApplySuppressions path: the bad variant's want comments describe
// the findings that survive (underlying findings the directives fail to
// suppress, plus the directive diagnostics under the "suppression"
// pseudo-rule); the ok variant carries reasoned, matching directives and
// must come out clean.
func TestSuppression(t *testing.T) {
	for _, variant := range []string{"bad", "ok"} {
		t.Run(variant, func(t *testing.T) {
			pkg := loadFixture(t, "suppress", variant)
			findings := lint.Analyze([]*lint.Package{pkg}, []*lint.Analyzer{lint.NewCtxflow()})
			findings = lint.ApplySuppressions([]*lint.Package{pkg}, findings)
			diffWant(t, filepath.Join("testdata", "suppress", variant), findings)
		})
	}
}

// TestIoconfineScoping proves the allowlist works: the violating fixture
// produces nothing when its own path is allowed, the way internal/ssd and
// internal/diskio are in the real configuration.
func TestIoconfineScoping(t *testing.T) {
	pkg := loadFixture(t, "ioconfine", "bad")
	an := lint.NewIoconfine([]string{"fixture/ioconfine"})
	if findings := lint.Analyze([]*lint.Package{pkg}, []*lint.Analyzer{an}); len(findings) > 0 {
		t.Fatalf("allowlisted package still reported %d findings, first: %s", len(findings), findings[0])
	}
}

// TestDefaultRegistry pins the shipped rule set, and that the held-lock
// checker's two registrations split the module along one strict list: the
// same violating package reports under exactly one of lockheld/chanflow
// wherever it sits, never both and never neither. The obligation checker's
// two registrations differ in scope instead: poolpair leaves the pool's own
// package alone, cancelfree looks everywhere.
func TestDefaultRegistry(t *testing.T) {
	var names []string
	var heldLock, owned []*lint.Analyzer
	for _, a := range lint.Default("github.com/optlab/opt") {
		names = append(names, a.Name)
		if a.Name == "lockheld" || a.Name == "chanflow" {
			heldLock = append(heldLock, a)
		}
		if a.Name == "poolpair" || a.Name == "cancelfree" {
			owned = append(owned, a)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s is missing Doc or Run", a.Name)
		}
	}
	want := []string{
		"ctxflow", "lockheld", "ioconfine", "closecheck", "eventkind",
		"cancelfree", "poolpair", "atomicfield", "condguard", "gojoin",
		"lockorder", "chanflow", "waitjoin",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Default() = %v, want %v", names, want)
	}
	for path, rule := range map[string]string{
		"github.com/optlab/opt/internal/core/fixture":   "lockheld",
		"github.com/optlab/opt/internal/ssd/fixture":    "lockheld",
		"github.com/optlab/opt/internal/engine/fixture": "lockheld",
		"github.com/optlab/opt/internal/server/fixture": "chanflow",
		"github.com/optlab/opt/fixture":                 "chanflow",
	} {
		pkg := loadFixtureAs(t, "chanflow", "bad", path)
		rules := map[string]int{}
		for _, f := range lint.Analyze([]*lint.Package{pkg}, heldLock) {
			rules[f.Rule]++
		}
		if len(rules) != 1 || rules[rule] == 0 {
			t.Errorf("package %s: findings by rule = %v, want only %s", path, rules, rule)
		}
	}
	for path, want := range map[string]string{
		"github.com/optlab/opt/internal/buffer/fixture": "cancelfree",
		"github.com/optlab/opt/internal/core/fixture":   "cancelfree,poolpair",
	} {
		pkgs := []*lint.Package{
			loadFixtureAs(t, "poolpair", "bad", path+"/pool"),
			loadFixtureAs(t, "cancelfree", "bad", path+"/cancel"),
		}
		rules := map[string]bool{}
		for _, f := range lint.Analyze(pkgs, owned) {
			rules[f.Rule] = true
		}
		var got []string
		for _, name := range []string{"cancelfree", "poolpair"} {
			if rules[name] {
				got = append(got, name)
			}
		}
		if strings.Join(got, ",") != want {
			t.Errorf("packages under %s: obligation rules that fired = %v, want %s", path, got, want)
		}
	}
}
