package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/optlab/opt/internal/lint"
)

// TestSuggestedFixes runs each fixable analyzer over its testdata/<rule>/fix
// package, applies the suggested edits, and compares the result to the
// .golden files. The patched package is then typechecked and re-analyzed in
// a temp dir: zero findings there proves both that the fixes actually
// silence the rule and that a second -fix pass would be a no-op.
func TestSuggestedFixes(t *testing.T) {
	cases := []struct {
		rule     string
		analyzer *lint.Analyzer
	}{
		{"closecheck", lint.NewClosecheck([]string{"fixture/closecheck"})},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			pkg := loadFixture(t, tc.rule, "fix")
			findings := lint.Analyze([]*lint.Package{pkg}, []*lint.Analyzer{tc.analyzer})
			if len(findings) == 0 {
				t.Fatalf("fix fixture produced no findings; nothing to fix")
			}
			for _, f := range findings {
				if f.Fix == nil {
					t.Errorf("finding without a suggested fix in the fix fixture: %s", f)
				}
			}
			patched, n, err := lint.ApplyFixes(pkg.Fset, findings, os.ReadFile)
			if err != nil {
				t.Fatalf("ApplyFixes: %v", err)
			}
			if n != len(findings) {
				t.Errorf("applied %d of %d fixes", n, len(findings))
			}
			if len(patched) == 0 {
				t.Fatalf("ApplyFixes returned no patched files")
			}

			tmp := t.TempDir()
			var names []string
			for path, content := range patched {
				golden, err := os.ReadFile(path + ".golden")
				if err != nil {
					t.Fatalf("reading golden: %v", err)
				}
				if string(content) != string(golden) {
					t.Errorf("%s: patched content does not match %s.golden\n--- got ---\n%s\n--- want ---\n%s",
						path, path, content, golden)
				}
				name := filepath.Base(path)
				if err := os.WriteFile(filepath.Join(tmp, name), content, 0o644); err != nil {
					t.Fatalf("writing patched file: %v", err)
				}
				names = append(names, name)
			}

			fixedPkg, err := fixtureLoader(t).LoadDir(tmp, "fixture/"+tc.rule+"/fixed", names)
			if err != nil {
				t.Fatalf("loading patched package: %v", err)
			}
			if again := lint.Analyze([]*lint.Package{fixedPkg}, []*lint.Analyzer{tc.analyzer}); len(again) > 0 {
				t.Fatalf("fixes are not idempotent: patched package still reports %d findings, first: %s", len(again), again[0])
			}
		})
	}
}
