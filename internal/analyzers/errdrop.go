package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// ErrDrop flags an error result of one of this module's own functions that
// is assigned to the blank identifier in shipped code. Every kernel entry
// returns its error (a cancelled context, an armed failpoint, a contained
// worker panic), and a blank discard turns that contained failure into a
// silent empty result. Standard-library and third-party calls are out of
// scope: their best-effort discards (Chtimes, WalkDir, LoadOrStore) are
// deliberate and are not this module's failure reports.
var ErrDrop = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "flag error results of this module's functions discarded with _\n\n" +
		"Failure is contained and reported: an error from a kernel, the\n" +
		"pipeline or a front end reaches its caller, or the discard carries a\n" +
		"//parsamplevet:ignore errdrop <reason> directive.",
	Run: runErrDrop,
}

var errorType = types.Universe.Lookup("error").Type()

func runErrDrop(pass *analysis.Pass) (any, error) {
	rep := newReporter(pass, "errdrop")
	mod := modulePath(pass)
	check := func(lhs []ast.Expr, rhs []ast.Expr) {
		for i, l := range lhs {
			if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
				continue
			}
			// One call spread over the left-hand side, or one call per
			// left-hand operand.
			call, idx := rhs[0], i
			if len(rhs) == len(lhs) {
				call, idx = rhs[i], 0
			}
			if fn, ok := droppedError(pass.TypesInfo, call, idx, mod); ok {
				rep.reportNode(l, "error result of %s.%s discarded: return or handle it, or mark the line //parsamplevet:ignore errdrop <reason>", fn.Pkg().Name(), fn.Name())
			}
		}
	}
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				check(n.Lhs, n.Rhs)
			case *ast.ValueSpec:
				if len(n.Values) > 0 {
					lhs := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						lhs[i] = id
					}
					check(lhs, n.Values)
				}
			}
			return true
		})
	}
	return nil, nil
}

// droppedError reports the callee when e is a call to a function declared
// in module mod whose result idx has type error.
func droppedError(info *types.Info, e ast.Expr, idx int, mod string) (*types.Func, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fn, ok := calleeFunc(info, call)
	if !ok || fn.Pkg() == nil || !inModule(fn.Pkg().Path(), mod) {
		return nil, false
	}
	res := fn.Type().(*types.Signature).Results()
	return fn, idx < res.Len() && types.Identical(res.At(idx).Type(), errorType)
}

// modulePath is the module of the package under analysis: the driver's
// when it reports one, else the package path's first element (this
// module's path, "parsample", is one element).
func modulePath(pass *analysis.Pass) string {
	if pass.Module != nil && pass.Module.Path != "" {
		return pass.Module.Path
	}
	root, _, _ := strings.Cut(pass.Pkg.Path(), "/")
	return root
}

func inModule(pkgPath, mod string) bool {
	return pkgPath == mod || strings.HasPrefix(pkgPath, mod+"/")
}
