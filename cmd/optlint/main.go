// Command optlint loads every package named by its argument patterns,
// typechecks them with the standard library toolchain, and runs the OPT
// project's analyzer suite (see internal/lint). Findings print one per
// line as "file:line:col: [rule] message"; with -json they print as a JSON
// array, with -sarif as a SARIF 2.1.0 log for GitHub code scanning. -fix
// applies each finding's suggested edit in place and reports what remains.
// //optlint:ignore <rule> <reason> comments suppress matching findings on
// the same or next line; a reason-less or unused directive is itself a
// finding. The exit status is 0 when the tree is clean, 1 when any finding
// was reported, and 2 on a load or typecheck failure.
//
// The analyzers share a whole-module Program of interprocedural summaries
// (DESIGN.md §13) — blocking and lock facts, read by lockheld and
// lockorder — computed once per run. -parallel N fans the per-package
// analyzer runs over N workers (findings are position-sorted, so the
// output is identical at any width). -graph dumps the module's lock-order
// graph (DESIGN.md §16) as GraphViz DOT instead of findings.
// -rules prints the registered analyzer table — one "name<TAB>doc" line
// per rule, or a JSON array under -json — without loading any packages.
//
// Usage:
//
//	go run ./cmd/optlint ./...
//	go run ./cmd/optlint -fix ./internal/server
//	go run ./cmd/optlint -sarif ./... > optlint.sarif
//	go run ./cmd/optlint -graph ./... | dot -Tsvg > locks.svg
//	go run ./cmd/optlint -rules -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/optlab/opt/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text lines")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log (for code scanning upload)")
	applyFix := flag.Bool("fix", false, "apply suggested fixes in place, then report the remaining findings")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "number of concurrent per-package analyzer workers")
	dumpGraph := flag.Bool("graph", false, "print the module's lock-order graph as GraphViz DOT and exit")
	listRules := flag.Bool("rules", false, "print the analyzer table (name and one-line doc) and exit; -json for machine-readable output")
	flag.Parse()

	if *jsonOut && *sarifOut {
		fatal(fmt.Errorf("-json and -sarif are mutually exclusive"))
	}
	if *listRules {
		if *sarifOut {
			fatal(fmt.Errorf("-rules supports text or -json output only"))
		}
		if err := writeRules(os.Stdout, lint.Default(""), *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	openExport := func(path string) (io.ReadCloser, error) { return os.Open(path) }
	analyzers := lint.Default("")
	// load analyzes the tree once; fixed reports that suggested fixes were
	// written to disk, which invalidates every recorded position.
	load := func() (findings []lint.Finding, fixed bool, err error) {
		loader, err := lint.NewLoader(cwd, openExport, patterns...)
		if err != nil {
			return nil, false, err
		}
		pkgs, err := loader.Load()
		if err != nil {
			return nil, false, err
		}
		analyzers = lint.Default(loader.ModulePath())
		prog := lint.BuildProgram(pkgs)
		if *dumpGraph {
			if err := prog.WriteLockGraphDOT(os.Stdout); err != nil {
				return nil, false, err
			}
			nodes, edges, cycles := prog.LockGraphSize()
			fmt.Fprintf(os.Stderr, "optlint: lock graph: %d locks, %d order edges, %d cycles\n",
				nodes, edges, cycles)
			os.Exit(0)
		}
		findings = lint.AnalyzeProgram(prog, pkgs, analyzers, *parallel)
		findings = lint.ApplySuppressions(pkgs, findings)
		if *applyFix {
			patched, n, err := lint.ApplyFixes(loader.Fset, findings, os.ReadFile)
			if err != nil {
				return nil, false, err
			}
			if n > 0 {
				for path, content := range patched {
					if err := writeFile(path, content); err != nil {
						return nil, false, err
					}
				}
				fmt.Fprintf(os.Stderr, "optlint: applied %d fixes across %d files\n", n, len(patched))
				return nil, true, nil
			}
		}
		return findings, false, nil
	}

	findings, fixed, err := load()
	if err != nil {
		fatal(err)
	}
	if fixed {
		// Fixes were applied; re-analyze the patched tree so the report
		// (and the exit status) describes what is actually left.
		findings, fixed, err = load()
		if err != nil {
			fatal(err)
		}
		if fixed {
			fatal(fmt.Errorf("fixes were not idempotent: second -fix pass still produced edits"))
		}
	}
	lint.Relativize(findings, cwd)

	switch {
	case *jsonOut:
		err = lint.WriteJSON(os.Stdout, findings)
	case *sarifOut:
		err = lint.WriteSARIF(os.Stdout, analyzers, findings)
	default:
		err = lint.WriteText(os.Stdout, findings)
	}
	if err != nil {
		fatal(err)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// writeRules prints the registered analyzer table: one "name<TAB>doc"
// line per rule in registration order, or a JSON array of {name, doc}
// objects when asJSON is set. The driver test diffs this against the
// table README.md documents, so the two cannot drift apart.
func writeRules(w io.Writer, analyzers []*lint.Analyzer, asJSON bool) error {
	if asJSON {
		type rule struct {
			Name string `json:"name"`
			Doc  string `json:"doc"`
		}
		rules := make([]rule, 0, len(analyzers))
		for _, a := range analyzers {
			rules = append(rules, rule{Name: a.Name, Doc: a.Doc})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rules)
	}
	for _, a := range analyzers {
		if _, err := fmt.Fprintf(w, "%s\t%s\n", a.Name, a.Doc); err != nil {
			return err
		}
	}
	return nil
}

// writeFile replaces path's content, preserving its permission bits.
func writeFile(path string, content []byte) error {
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	return os.WriteFile(path, content, mode)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optlint:", err)
	os.Exit(2)
}
