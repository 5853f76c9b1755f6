package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/lint"
)

var (
	buildOnce sync.Once
	binDir    string // where optlintBin built the driver; removed by TestMain
	binPath   string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		if err := os.RemoveAll(binDir); err != nil && code == 0 {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// optlintBin compiles the driver once per test run; the tests exec the
// binary directly because `go run` does not propagate exit status 2.
func optlintBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "optlint-bin-")
		if buildErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "optlint")
		cmd := exec.Command("go", "build", "-o", binPath, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building optlint: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// runOptlint executes the driver from the repository root and returns
// stdout, stderr, and the exit code.
func runOptlint(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(optlintBin(t), args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	switch err := cmd.Run().(type) {
	case nil:
		return stdout.String(), stderr.String(), 0
	case *exec.ExitError:
		return stdout.String(), stderr.String(), err.ExitCode()
	default:
		t.Fatalf("running optlint %v: %v", args, err)
		return "", "", -1
	}
}

// TestDriverCleanPackage runs the driver end to end on a package that must
// stay clean: exit 0, no output.
func TestDriverCleanPackage(t *testing.T) {
	out, stderr, code := runOptlint(t, "./internal/events")
	if code != 0 || out != "" {
		t.Fatalf("optlint exited %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
}

// TestDriverFindings pins the exit-1 contract and the line format: a
// package with findings prints one "file:line:col: [rule] message" line
// each, its path relative to the working directory.
func TestDriverFindings(t *testing.T) {
	out, stderr, code := runOptlint(t, "./internal/lint/testdata/condguard/bad")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	line := regexp.MustCompile(`^internal/lint/testdata/condguard/bad/bad\.go:\d+:\d+: \[condguard\] .+$`)
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !line.MatchString(l) {
			t.Errorf("finding line %q is not file:line:col: [rule] message", l)
		}
	}
}

// TestDriverTypecheckFailure pins the exit-2 contract: a package that does
// not typecheck is a load failure, not a finding, and the diagnostic
// reaches stderr.
func TestDriverTypecheckFailure(t *testing.T) {
	out, stderr, code := runOptlint(t, "./internal/lint/testdata/broken")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if out != "" {
		t.Errorf("load failure produced findings output:\n%s", out)
	}
	if !strings.Contains(stderr, "broken.go") {
		t.Errorf("stderr does not name the failing file:\n%s", stderr)
	}
}

// TestDriverRules diffs the analyzer table README.md documents against
// the shipped rule set: same rules, same order, each row's description the
// analyzer's Doc, so the docs cannot drift from the code.
func TestDriverRules(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	var rows []string
	inTable := false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| Rule |") {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		m := readmeRuleRow.FindStringSubmatch(line)
		if m == nil {
			if !strings.HasPrefix(line, "|---") {
				break // past the analyzer table
			}
			continue
		}
		rows = append(rows, m[1]+"\t"+m[2])
	}
	var want []string
	for _, a := range lint.Default("") {
		want = append(want, a.Name+"\t"+a.Doc)
	}
	if got := strings.Join(rows, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("README.md analyzer table diverges from lint.Default:\nREADME:\n%s\ncode:\n%s", got, strings.Join(want, "\n"))
	}
}

// readmeRuleRow matches one row of README's analyzer table (scanned only
// under its "| Rule | Checks |" header): a backticked rule name cell
// followed by the description cell.
var readmeRuleRow = regexp.MustCompile("^\\| `([a-z]+)` \\| (.+) \\|$")

// TestDriverFlags pins the driver's flag set: it has none, so -h lists
// no flag and exits 0.
func TestDriverFlags(t *testing.T) {
	_, stderr, code := runOptlint(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d\nstderr: %s", code, stderr)
	}
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "-") {
			t.Errorf("-h lists a flag: %q", line)
		}
	}
}
