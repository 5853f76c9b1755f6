// Command optlint loads every package named by its argument patterns
// (./... when there are none), typechecks them with the standard library
// toolchain, and runs the OPT project's analyzer suite (see internal/lint).
// Findings print one per line as "file:line:col: [rule] message". The
// exit status is 0 when the tree is clean, 1 when any finding was
// reported, and 2 on a load or typecheck failure. It takes no flags.
// Every analyzer reads one function body at a time (DESIGN.md §13).
//
// Usage:
//
//	go run ./cmd/optlint ./...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/optlab/opt/internal/lint"
)

func main() {
	flag.Usage = func() { fmt.Fprintln(os.Stderr, "usage: optlint [packages]") }
	flag.Parse()
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	openExport := func(path string) (io.ReadCloser, error) { return os.Open(path) }
	loader, err := lint.NewLoader(cwd, openExport, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load()
	if err != nil {
		fatal(err)
	}
	findings := lint.Analyze(pkgs, lint.Default(loader.ModulePath()))
	lint.Relativize(findings, cwd)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optlint:", err)
	os.Exit(2)
}
