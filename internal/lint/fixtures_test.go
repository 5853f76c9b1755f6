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
		{"lockheld", lint.NewLockheld()},
		{"ioconfine", lint.NewIoconfine([]string{"fixture/other"})},
		{"atomicfield", lint.NewAtomicfield()},
		{"condguard", lint.NewCondguard()},
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

// TestAnalyzeDeterminism: two sequential runs over the same packages give
// byte-identical reports. The fixture mix puts several rules' findings in
// several packages, so an order that leaked from a map would show here.
func TestAnalyzeDeterminism(t *testing.T) {
	pkgs := []*lint.Package{
		loadFixture(t, "lockheld", "bad"),
		loadFixture(t, "condguard", "bad"),
		loadFixture(t, "atomicfield", "bad"),
	}
	analyzers := []*lint.Analyzer{lint.NewLockheld(), lint.NewCondguard(), lint.NewAtomicfield()}
	render := func() string {
		var out strings.Builder
		for _, f := range lint.Analyze(pkgs, analyzers) {
			fmt.Fprintln(&out, f)
		}
		return out.String()
	}
	first := render()
	if first == "" {
		t.Fatal("determinism test needs a non-empty report")
	}
	if second := render(); second != first {
		t.Errorf("second run differs from the first:\n%s\nvs\n%s", second, first)
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

// TestAtomicfieldExemptsTestFiles proves the ban skips test code: the
// testcode fixture makes the same sync/atomic call on a field's address in
// a product file and in a _test.go file, and only the product file's call
// is reported.
func TestAtomicfieldExemptsTestFiles(t *testing.T) {
	pkg := loadFixture(t, "atomicfield", "testcode")
	tests := 0
	for _, isTest := range pkg.IsTest {
		if isTest {
			tests++
		}
	}
	if tests != 1 {
		t.Fatalf("testcode fixture loaded %d _test.go files, want 1", tests)
	}
	findings := lint.Analyze([]*lint.Package{pkg}, []*lint.Analyzer{lint.NewAtomicfield()})
	diffWant(t, filepath.Join("testdata", "atomicfield", "testcode"), findings)
}

// TestDefaultRegistry pins the shipped rule set, and that the held-lock
// checker is registered once and reports every want line of its violating
// fixture wherever the package sits: in the overlap-critical packages and
// outside them alike.
func TestDefaultRegistry(t *testing.T) {
	var names []string
	var heldLock []*lint.Analyzer
	for _, a := range lint.Default("github.com/optlab/opt") {
		names = append(names, a.Name)
		if a.Name == "lockheld" {
			heldLock = append(heldLock, a)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s is missing Doc or Run", a.Name)
		}
	}
	want := []string{
		"lockheld", "ioconfine", "atomicfield", "condguard",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Default() = %v, want %v", names, want)
	}
	wantLines := len(wantAt(t, filepath.Join("testdata", "lockheld", "bad")))
	for _, path := range []string{
		"github.com/optlab/opt/internal/core/fixture",
		"github.com/optlab/opt/internal/ssd/fixture",
		"github.com/optlab/opt/internal/engine/fixture",
		"github.com/optlab/opt/internal/server/fixture",
		"github.com/optlab/opt/fixture",
	} {
		pkg := loadFixtureAs(t, "lockheld", "bad", path)
		if got := len(lint.Analyze([]*lint.Package{pkg}, heldLock)); got != wantLines {
			t.Errorf("package %s: %d lockheld findings, want %d (one per want line)", path, got, wantLines)
		}
	}
}
