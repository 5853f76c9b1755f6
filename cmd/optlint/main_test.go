package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// optlintBin compiles the driver once per test run; the tests exec the
// binary directly because `go run` does not propagate exit status 2.
func optlintBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "optlint-bin-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "optlint")
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
// stay clean, in all three output modes.
func TestDriverCleanPackage(t *testing.T) {
	for _, args := range [][]string{
		{"./internal/events"},
		{"-json", "./internal/events"},
		{"-sarif", "./internal/events"},
	} {
		out, stderr, code := runOptlint(t, args...)
		if code != 0 {
			t.Fatalf("optlint %v exited %d\nstdout: %s\nstderr: %s", args, code, out, stderr)
		}
		switch args[0] {
		case "-json":
			var findings []map[string]any
			if err := json.Unmarshal([]byte(out), &findings); err != nil {
				t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
			}
			if len(findings) != 0 {
				t.Fatalf("clean package reported findings: %v", findings)
			}
		case "-sarif":
			var log struct {
				Version string `json:"version"`
				Runs    []struct {
					Results []any `json:"results"`
				} `json:"runs"`
			}
			if err := json.Unmarshal([]byte(out), &log); err != nil {
				t.Fatalf("-sarif output is not valid JSON: %v\n%s", err, out)
			}
			if log.Version != "2.1.0" || len(log.Runs) != 1 {
				t.Fatalf("-sarif output is not a one-run 2.1.0 log:\n%s", out)
			}
			if len(log.Runs[0].Results) != 0 {
				t.Fatalf("clean package reported SARIF results:\n%s", out)
			}
		default:
			if len(out) != 0 {
				t.Fatalf("clean package produced output:\n%s", out)
			}
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

// TestDriverParallelDeterminism runs the parallel driver repeatedly over a
// finding-rich tree and demands byte-identical reports: the worker pool
// must not reorder or drop findings. (interproc/bad imports its helper by
// the fixture-only path fixture/interproc/helper, which the go tool cannot
// resolve, so the driver takes chanflow/bad's findings instead.)
func TestDriverParallelDeterminism(t *testing.T) {
	patterns := []string{"./internal/lint/testdata/poolpair/bad", "./internal/lint/testdata/chanflow/bad"}
	base, _, code := runOptlint(t, append([]string{"-parallel", "1"}, patterns...)...)
	if code != 1 {
		t.Fatalf("baseline exit = %d, want 1 (fixture tree must have findings)", code)
	}
	if base == "" {
		t.Fatal("determinism test needs a non-empty report")
	}
	for _, workers := range []string{"2", "8"} {
		for round := 0; round < 3; round++ {
			out, stderr, code := runOptlint(t, append([]string{"-parallel", workers}, patterns...)...)
			if code != 1 {
				t.Fatalf("-parallel %s round %d exit = %d, want 1\nstderr: %s", workers, round, code, stderr)
			}
			if out != base {
				t.Fatalf("-parallel %s round %d output diverges:\nbase:\n%s\ngot:\n%s", workers, round, base, out)
			}
		}
	}
}

// TestDriverRules pins the -rules contract and cross-checks it against
// the analyzer table README.md documents: same rules, same order, so the
// docs cannot drift from the binary.
func TestDriverRules(t *testing.T) {
	out, stderr, code := runOptlint(t, "-rules")
	if code != 0 {
		t.Fatalf("-rules exited %d\nstderr: %s", code, stderr)
	}
	var textNames []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		name, doc, ok := strings.Cut(line, "\t")
		if !ok || name == "" || doc == "" {
			t.Fatalf("-rules line is not name<TAB>doc: %q", line)
		}
		textNames = append(textNames, name)
	}

	jsonOut, stderr, code := runOptlint(t, "-rules", "-json")
	if code != 0 {
		t.Fatalf("-rules -json exited %d\nstderr: %s", code, stderr)
	}
	var rules []struct {
		Name string `json:"name"`
		Doc  string `json:"doc"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &rules); err != nil {
		t.Fatalf("-rules -json output is not a JSON array: %v\n%s", err, jsonOut)
	}
	var jsonNames []string
	for _, r := range rules {
		if r.Name == "" || r.Doc == "" {
			t.Fatalf("-rules -json entry missing name or doc: %+v", r)
		}
		jsonNames = append(jsonNames, r.Name)
	}
	if strings.Join(textNames, ",") != strings.Join(jsonNames, ",") {
		t.Fatalf("-rules text and -json disagree:\ntext: %v\njson: %v", textNames, jsonNames)
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	var docNames []string
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
		docNames = append(docNames, m[1])
	}
	if strings.Join(docNames, ",") != strings.Join(jsonNames, ",") {
		t.Fatalf("README.md analyzer table diverges from `optlint -rules`:\nREADME: %v\nbinary: %v",
			docNames, jsonNames)
	}
}

// readmeRuleRow matches one row of README's analyzer table (scanned only
// under its "| Rule | Checks |" header): a backticked rule name cell
// followed by the description cell.
var readmeRuleRow = regexp.MustCompile("^\\| `([a-z]+)` \\| .+ \\|$")

// TestDriverLockGraph: -graph emits a well-formed DOT digraph of the
// module's abstract locks and logs the graph shape on stderr. The tree is
// deadlock-free, so the summary line must report zero cycles.
func TestDriverLockGraph(t *testing.T) {
	out, stderr, code := runOptlint(t, "-graph", "./...")
	if code != 0 {
		t.Fatalf("-graph exited %d\nstderr: %s", code, stderr)
	}
	if !strings.HasPrefix(out, "digraph lockorder {") || !strings.HasSuffix(strings.TrimRight(out, "\n"), "}") {
		t.Fatalf("-graph output is not a DOT digraph:\n%s", out)
	}
	if !strings.Contains(out, "internal/server.Manager.mu") {
		t.Errorf("-graph output does not list the server manager lock:\n%s", out)
	}
	if !regexp.MustCompile(`lock graph: \d+ locks, \d+ order edges, 0 cycles`).MatchString(stderr) {
		t.Errorf("-graph stderr missing the zero-cycle shape line:\n%s", stderr)
	}
}

// TestDriverSummaryCache: a cold run reports itself as cold and writes the
// cache file; a warm run reports warm and reaches the same verdict.
func TestDriverSummaryCache(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "optlint.summaries")
	out, stderr, code := runOptlint(t, "-summary-cache", cache, "./internal/events")
	if code != 0 {
		t.Fatalf("cold run exited %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "summary cache cold (no cache)") {
		t.Errorf("cold run stderr missing the cold timing line:\n%s", stderr)
	}
	if fi, err := os.Stat(cache); err != nil || fi.Size() == 0 {
		t.Fatalf("cold run did not write the cache file: %v", err)
	}
	out2, stderr2, code2 := runOptlint(t, "-summary-cache", cache, "./internal/events")
	if code2 != 0 {
		t.Fatalf("warm run exited %d\nstderr: %s", code2, stderr2)
	}
	if !strings.Contains(stderr2, "summary cache warm") {
		t.Errorf("warm run stderr missing the warm timing line:\n%s", stderr2)
	}
	if out != out2 {
		t.Errorf("warm run report differs from cold run:\ncold:\n%s\nwarm:\n%s", out, out2)
	}

	// The same sources summarised by a linter with other fact semantics:
	// only the fingerprint's version prefix differs, and the cache must not
	// be trusted.
	raw, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Fingerprint string          `json:"fingerprint"`
		Summaries   json.RawMessage `json:"summaries"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	version, digest, ok := strings.Cut(file.Fingerprint, "-")
	if !ok || !strings.HasPrefix(version, "v") {
		t.Fatalf("cache fingerprint %q carries no version prefix", file.Fingerprint)
	}
	file.Fingerprint = version + "0-" + digest
	if raw, err = json.Marshal(file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr3, _ := runOptlint(t, "-summary-cache", cache, "./internal/events"); !strings.Contains(stderr3, "summary cache cold (stale cache)") {
		t.Errorf("a cache written under another summary version was not read as cold:\n%s", stderr3)
	}
}
