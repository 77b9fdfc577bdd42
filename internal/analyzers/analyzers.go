// Package analyzers is parsamplevet: a go/analysis suite that
// machine-enforces the repository's determinism, cancellation, and
// cache-identity invariants. Each invariant was bought with a real bug or a
// deliberate design decision in an earlier PR, and the persistent-artifact
// roadmap items turn violations from per-process bugs into durable cache
// corruption — so the conventions are enforced by a compiler-grade gate
// instead of review memory. DESIGN.md §9 documents each invariant and the
// recipe for adding a new analyzer.
//
// The suite:
//
//   - maporder: order-sensitive consumption of map iteration (append, send,
//     write, hash feed, or tie-blind selection) in kernel/output packages.
//   - ctxpoll: ...Context kernel entry points whose loops never poll
//     cancellation, and context.Context stored in struct fields.
//   - nondeterm: wall-clock, global rand, environment reads, and multi-way
//     selects inside kernel packages.
//   - fingerprint: run parameters leaking into the cache-identity hash.
//   - poolrelease: sync.Pool.Put reachable before spawned workers are
//     joined.
//
// Suppression: a finding is silenced by a directive on the flagged line or
// the line directly above it, with a mandatory reason:
//
//	//parsamplevet:ignore <name> <reason>
//	//lint:ignore parsamplevet/<name> <reason>
//
// The first form is native (and invisible to other linters); the second is
// the staticcheck-style spelling. A directive without a reason is itself a
// diagnostic.
package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Suite returns the full parsamplevet analyzer set, in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapOrder,
		CtxPoll,
		NonDeterm,
		Fingerprint,
		PoolRelease,
	}
}

// kernelScope matches the packages whose outputs are part of the
// deterministic artifact contract: the compute kernels, the pipeline
// engine, and the figure/output assembly layers. internal/server,
// internal/faultinject and the cmd front ends are deliberately outside —
// they own wall-clock, environment, and operational nondeterminism.
const kernelScope = `(^|/)(expr|chordal|mcode|analysis|sampling|pipeline|graph|ontology|cliques|centrality|datasets|experiments|mpisim|api|parsample)$`

// scopeFlag compiles a packages-regexp flag value once per run.
type scopeFlag struct {
	expr string
	re   *regexp.Regexp
}

func (s *scopeFlag) match(path string) bool {
	if s.re == nil || s.re.String() != s.expr {
		s.re = regexp.MustCompile(s.expr)
	}
	return s.re.MatchString(path)
}

// isTestFile reports whether the file position name ends in _test.go.
// The determinism contract covers shipped code; tests are free to use
// clocks, environment, and unordered iteration.
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	name := pass.Fset.File(f.FileStart).Name()
	return strings.HasSuffix(name, "_test.go")
}

// sourceFiles yields the non-test files of the package under analysis.
func sourceFiles(pass *analysis.Pass) []*ast.File {
	out := make([]*ast.File, 0, len(pass.Files))
	for _, f := range pass.Files {
		if !isTestFile(pass, f) {
			out = append(out, f)
		}
	}
	return out
}

// transitiveCallers returns the same-package functions that (transitively)
// make a call satisfying isDirect.
func transitiveCallers(pass *analysis.Pass, isDirect func(*types.Info, *ast.CallExpr) bool) map[*types.Func]bool {
	info := pass.TypesInfo
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := info.ObjectOf(fd.Name).(*types.Func); ok {
					bodies[fn] = fd
				}
			}
		}
	}
	out := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for fn, fd := range bodies {
			if out[fn] {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if isDirect(info, call) {
						found = true
						return false
					}
					if callee, ok := calleeFunc(info, call); ok && out[callee] {
						found = true
						return false
					}
				}
				return true
			})
			if found {
				out[fn] = true
				changed = true
			}
		}
	}
	return out
}
