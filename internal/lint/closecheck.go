package lint

import (
	"go/ast"
	"go/types"
)

// NewClosecheck builds the closecheck analyzer: calling Close, Drain or
// Flush on a type defined in one of the given packages and dropping its
// error result is a finding. Those are the calls that settle buffered
// writes, outstanding async requests and simulated-latency debt — an
// ignored error there silently truncates a store file or miscounts I/O.
//
// Discarding explicitly (`_ = dev.Close()`) is legal: the decision is
// visible to a reviewer. Methods without an error result (for example
// AsyncDevice.Close) are never flagged. Test files are checked too — the
// rule exists precisely because test helpers were dropping Close errors.
func NewClosecheck(pkgs []string) *Analyzer {
	cc := &closecheck{pkgs: pkgs}
	return &Analyzer{
		Name: "closecheck",
		Doc:  "`Close`/`Drain`/`Flush` errors checked or explicitly `_ =` discarded",
		Run:  cc.run,
	}
}

type closecheck struct {
	pkgs []string
}

func (cc *closecheck) run(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = st.Call
			case *ast.GoStmt:
				call = st.Call
			default:
				return true
			}
			if call == nil {
				return true
			}
			if recv, method, ok := cc.target(pass.Pkg.Info, call); ok {
				pass.Reportf(call.Pos(), "error result of %s.%s() is unchecked (check it or discard with `_ =`)", recv, method)
			}
			return true
		})
	}
}

// target reports whether call is a Close/Drain/Flush method with an error
// result on a type defined in one of the configured packages.
func (cc *closecheck) target(info *types.Info, call *ast.CallExpr) (recv, method string, ok bool) {
	name := ""
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		name = sel.Sel.Name
	}
	if name != "Close" && name != "Drain" && name != "Flush" {
		return "", "", false
	}
	fn, isFn := funcFor(info, call)
	if !isFn {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil || !returnsError(sig) {
		return "", "", false
	}
	pkg, typ, isNamed := methodOn(fn)
	if !isNamed || !anyPathWithin(pkg, cc.pkgs) {
		return "", "", false
	}
	return typ, fn.Name(), true
}

// returnsError reports whether any result of sig is the error type.
func returnsError(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if named, isNamed := sig.Results().At(i).Type().(*types.Named); isNamed {
			if named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				return true
			}
		}
	}
	return false
}
