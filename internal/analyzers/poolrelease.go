package analyzers

import (
	"flag"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"
)

// PoolRelease enforces the PR 6 arena lifetime rule: a pooled buffer may be
// returned to its sync.Pool only after every worker goroutine spawned by
// the same function has been joined. A Put on a path where a spawned worker
// may still be running republishes the buffer while it is still written —
// the resulting corruption is a data race that -race only catches when the
// reuse actually interleaves.
//
// The check is control-flow based: from every `go` statement, any
// reachable sync.Pool.Put (direct, or via a same-package release helper)
// that is not preceded by a WaitGroup/errgroup-style Wait on that path is
// flagged. A `defer`red release is accepted when the function joins its
// workers somewhere; it is flagged when no join exists at all.
var PoolRelease = &analysis.Analyzer{
	Name: "poolrelease",
	Doc: "flag sync.Pool.Put reachable before spawned workers are joined\n\n" +
		"Arena pools release only after worker join (DESIGN.md §7): the pool\n" +
		"republishes the buffer immediately, so a straggler worker writing into\n" +
		"it corrupts whoever drew it next.",
	Run: runPoolRelease,
}

var poolReleaseScope = scopeFlag{expr: `.`}

func init() {
	PoolRelease.Flags.Init("poolrelease", flag.ExitOnError)
	PoolRelease.Flags.StringVar(&poolReleaseScope.expr, "packages", poolReleaseScope.expr,
		"regexp of package paths the analyzer applies to")
}

// isPoolPut reports whether call is (*sync.Pool).Put.
func isPoolPut(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeFunc(info, call)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Put" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isJoin reports whether call is a worker join: any method named Wait
// (sync.WaitGroup, errgroup.Group, and equivalents).
func isJoin(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeFunc(info, call)
	if !ok || fn.Name() != "Wait" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func runPoolRelease(pass *analysis.Pass) (any, error) {
	if !poolReleaseScope.match(pass.Pkg.Path()) {
		return nil, nil
	}
	rep := newReporter(pass, "poolrelease")
	releasers := transitiveCallers(pass, isPoolPut)
	joiners := transitiveCallers(pass, isJoin)

	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkPoolFunc(pass, rep, fd, releasers, joiners)
			return true
		})
	}
	return nil, nil
}

// event is one ordered occurrence inside a CFG block node.
type poolEvent struct {
	kind int // 0 spawn, 1 join, 2 release
	node ast.Node
}

const (
	evSpawn = iota
	evJoin
	evRelease
)

func checkPoolFunc(pass *analysis.Pass, rep *reporter, fd *ast.FuncDecl, releasers, joiners map[*types.Func]bool) {
	info := pass.TypesInfo
	isRelease := func(call *ast.CallExpr) bool {
		if isPoolPut(info, call) {
			return true
		}
		callee, ok := calleeFunc(info, call)
		return ok && releasers[callee]
	}
	isJoinCall := func(call *ast.CallExpr) bool {
		if isJoin(info, call) {
			return true
		}
		callee, ok := calleeFunc(info, call)
		return ok && joiners[callee]
	}

	// Quick scan: only functions that both spawn and release need the CFG.
	spawns, releases, joins, deferredReleases := 0, 0, 0, []*ast.CallExpr{}
	walkShallow(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			spawns++
			return false // the goroutine body is the worker's context
		case *ast.DeferStmt:
			if isRelease(n.Call) {
				deferredReleases = append(deferredReleases, n.Call)
			}
			return false
		case *ast.CallExpr:
			if isRelease(n) {
				releases++
			}
			if isJoinCall(n) {
				joins++
			}
		}
		return true
	})
	if spawns == 0 {
		return
	}
	for _, call := range deferredReleases {
		if joins == 0 {
			rep.reportNode(call, "deferred pool release in a function that spawns workers but never joins them: the arena returns to the pool while workers may still write it")
		}
	}
	if releases == 0 {
		return
	}

	// events extracts the ordered spawn/join/release occurrences of one CFG
	// node, without descending into goroutine bodies.
	events := func(n ast.Node) []poolEvent {
		var evs []poolEvent
		walkShallow(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.GoStmt:
				evs = append(evs, poolEvent{evSpawn, m})
				return false
			case *ast.DeferStmt:
				return false // handled above
			case *ast.CallExpr:
				switch {
				case isJoinCall(m):
					evs = append(evs, poolEvent{evJoin, m})
				case isRelease(m):
					evs = append(evs, poolEvent{evRelease, m})
				}
			}
			return true
		})
		return evs
	}

	g := cfg.New(fd.Body, func(*ast.CallExpr) bool { return true })
	type loc struct {
		block *cfg.Block
		idx   int // node index to start scanning at
	}
	flagged := map[ast.Node]bool{}
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			for _, ev := range events(n) {
				if ev.kind != evSpawn {
					continue
				}
				// BFS from just after the spawn; a join ends the path, a
				// release before any join is a flag.
				queue := []loc{{b, i + 1}}
				visited := map[*cfg.Block]bool{}
				for len(queue) > 0 {
					l := queue[0]
					queue = queue[1:]
					stopped := false
					for j := l.idx; j < len(l.block.Nodes) && !stopped; j++ {
						for _, e := range events(l.block.Nodes[j]) {
							if e.kind == evJoin {
								stopped = true
								break
							}
							if e.kind == evRelease && !flagged[e.node] {
								flagged[e.node] = true
								rep.reportNode(e.node, "pool release reachable after spawning workers without an intervening Wait: join workers before returning the arena to the pool")
							}
						}
					}
					if stopped {
						continue
					}
					for _, succ := range l.block.Succs {
						if !visited[succ] {
							visited[succ] = true
							queue = append(queue, loc{succ, 0})
						}
					}
				}
			}
		}
	}
}
