package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// ioFuncs are the os functions that open raw file handles or perform whole
// file data I/O. Metadata operations (Stat, Remove, MkdirTemp, …) are not
// data-path I/O and stay legal everywhere.
var ioFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"NewFile": true, "Pipe": true, "ReadFile": true, "WriteFile": true,
}

// NewIoconfine builds the ioconfine analyzer: direct os file access
// (os.Open and friends, the os.File type) and any use of syscall are
// confined to the packages under the allowed path prefixes. Everything
// else must reach disk through the internal/ssd and internal/diskio
// layers, where page accounting, simulated latency and cancellation live —
// an unconfined file handle is I/O the paper's cost model cannot see.
// Test files are exempt: fixtures legitimately create scratch files.
func NewIoconfine(allow []string) *Analyzer {
	io := &ioconfine{allow: allow}
	return &Analyzer{
		Name: "ioconfine",
		Doc:  "raw file/syscall I/O confined to the device layers and `cmd/`",
		Run:  io.run,
	}
}

type ioconfine struct {
	allow []string
}

func (io *ioconfine) run(pass *Pass) {
	if anyPathWithin(pass.Pkg.Path, io.allow) {
		return
	}
	for i, file := range pass.Pkg.Files {
		if pass.Pkg.IsTest[i] {
			continue
		}
		for _, imp := range file.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				if path == "syscall" || strings.HasPrefix(path, "syscall/") {
					pass.Reportf(imp.Pos(), "import of %q outside the I/O layer (allowed under: %s)", path, strings.Join(io.allow, ", "))
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "os" {
				return true
			}
			switch obj := pass.Pkg.Info.Uses[sel.Sel].(type) {
			case *types.Func:
				if ioFuncs[obj.Name()] {
					pass.Reportf(sel.Pos(), "os.%s outside the I/O layer; route disk access through internal/ssd or internal/diskio", obj.Name())
				}
			case *types.TypeName:
				if obj.Name() == "File" {
					pass.Reportf(sel.Pos(), "os.File outside the I/O layer; hold a device or stream from internal/ssd or internal/diskio instead")
				}
			}
			return true
		})
	}
}
