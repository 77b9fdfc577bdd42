package analyzers

import (
	"flag"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// NonDeterm flags ambient nondeterminism inside kernel packages: wall-clock
// reads, the global math/rand source, environment reads, and multi-way
// selects among ready channels. Randomness must flow through the SplitMix64
// purpose-tagged seed streams (PR 3's determinism contract) and wall-clock
// belongs only to the serving/loadgen layers and the comm backends' Run — a
// kernel that consults the clock or ambient state produces artifacts that
// are no longer a pure function of their inputs, which the persistent
// artifact tier would then cache forever.
var NonDeterm = &analysis.Analyzer{
	Name: "nondeterm",
	Doc: "flag wall-clock, global rand, env reads and racy selects in kernel packages\n\n" +
		"Replicated-sampling results are only comparable because runs are\n" +
		"bit-reproducible: seeds are explicit (SplitMix64 purpose tags), inputs\n" +
		"are explicit, and nothing reads the clock or the environment inside a\n" +
		"kernel.",
	Run: runNonDeterm,
}

// nonDetermScope is kernelScope minus mpisim and transport: their Run
// methods stamp the measured wall clocks that sit next to the modeled
// seconds, so time-shaped code belongs there; the serving/ops layers are
// outside kernelScope to begin with. comm is in scope: it owns the rank
// engine both backends run (delivery rule, gather, virtual-clock
// arithmetic), which must never read the machine clock.
var nonDetermScope = scopeFlag{expr: `(^|/)(expr|chordal|mcode|analysis|sampling|pipeline|graph|ontology|cliques|centrality|datasets|experiments|api|comm|parsample)$`}

func init() {
	NonDeterm.Flags.Init("nondeterm", flag.ExitOnError)
	NonDeterm.Flags.StringVar(&nonDetermScope.expr, "packages", nonDetermScope.expr,
		"regexp of package paths the analyzer applies to")
}

// randConstructors are the math/rand functions that build an explicitly
// seeded generator — the only approved way randomness enters a kernel.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func runNonDeterm(pass *analysis.Pass) (any, error) {
	if !nonDetermScope.match(pass.Pkg.Path()) {
		return nil, nil
	}
	rep := newReporter(pass, "nondeterm")
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNonDetermCall(pass, rep, n)
			case *ast.SelectStmt:
				checkSelect(pass, rep, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkNonDetermCall(pass *analysis.Pass, rep *reporter, call *ast.CallExpr) {
	fn, ok := calleeFunc(pass.TypesInfo, call)
	if !ok || fn.Pkg() == nil || !isPkgLevelFunc(fn) {
		// Methods are fine: draws on a *rand.Rand built from an explicit
		// seed are exactly the approved pattern.
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch path {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			rep.reportNode(call, "time.%s in kernel code: wall-clock belongs to server/loadgen and the comm backends' Run, never to artifact computation", name)
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			rep.reportNode(call, "%s.%s draws from the global rand source: derive a generator from a SplitMix64 purpose-tagged seed instead", path, name)
		}
	case "os":
		if name == "Getenv" || name == "LookupEnv" || name == "Environ" {
			rep.reportNode(call, "os.%s in kernel code: kernel behavior must be a function of explicit inputs, not the environment", name)
		}
	}
}

// isPkgLevelFunc reports whether fn is a package-level function (not a
// method).
func isPkgLevelFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// checkSelect flags selects that choose among two or more ready non-
// cancellation channels: the runtime picks uniformly at random. A select
// whose extra cases are ctx.Done()-style cancellation receives is the
// approved shape (that nondeterminism only decides *when* work stops, never
// what it computes).
func checkSelect(pass *analysis.Pass, rep *reporter, sel *ast.SelectStmt) {
	racy := 0
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue // default case
		}
		if !isCancellationComm(pass, cc.Comm) {
			racy++
		}
	}
	if racy >= 2 {
		rep.reportNode(sel, "select among %d ready channels resolves nondeterministically: kernel event order must be explicit (deliver by deterministic stamp, as comm.Engine.AnyRecv does)", racy)
	}
}

// isCancellationComm reports whether the comm statement is a receive from a
// context's Done channel.
func isCancellationComm(pass *analysis.Pass, comm ast.Stmt) bool {
	var recv ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		recv = s.Rhs[0]
	default:
		return false
	}
	ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(ue.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return isContextExpr(pass.TypesInfo, sel.X)
}
