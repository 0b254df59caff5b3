// Package goroleak requires every goroutine spawned in the serving
// packages (internal/cluster, internal/nameserver) to be joinable before
// its owner's Close returns: the goroutine must signal a sync.WaitGroup
// whose Add precedes the spawn. Blocking on a stop signal or a context is
// no join: the goroutine it wakes can still be running after Close
// returns. A closed done channel the spawner receives from is a join too,
// but no serving code joins that way, so goroleak does not accept one: a
// rule that only keeps the check quiet goes when no module line needs it.
// A goroutine nothing waits for outlives Close, races teardown, and —
// under the paper's coherence lens — keeps resolving names against a
// world that has already moved on.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"namecoherence/internal/analysis"
)

// Analyzer is the goroleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "requires every go statement in serving packages to be joined by a WaitGroup before Close returns",
	Run:  run,
	// Scope limits the analyzer to the long-running serving packages.
	Scope: []string{"cluster", "nameserver"},
}

func run(pass *analysis.Pass) (any, error) {
	for _, ff := range pass.Facts.Own {
		ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGo(pass, ff, g)
			}
			return true
		})
	}
	return nil, nil
}

// checkGo classifies one go statement's join discipline. The rules are
// ordered strongest-first; the first matching one decides.
func checkGo(pass *analysis.Pass, ff *analysis.FuncFacts, g *ast.GoStmt) {
	decl := ff.Decl
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		pass.Reportf(g.Pos(),
			"go %s spawns a named function with no join; wrap it in a func literal that signals a WaitGroup",
			analysis.ExprText(g.Call.Fun))
		return
	}
	j := joins(pass, lit.Body)

	// Rule 1: the body signals a WaitGroup. The matching Add must appear
	// lexically before the spawn in the same declaration, or the counter
	// can hit zero early and release a concurrent Wait.
	if j.wgDone != "" {
		if !addBefore(pass, ff, j.wgDone, g.Pos()) {
			pass.Reportf(g.Pos(),
				"goroutine calls %s.Done, but no %s.Add precedes the go statement in %s",
				j.wgDone, j.wgDone, decl.Name.Name)
		}
		return
	}

	// Rule 2: the body's only link to the spawner is a channel send.
	// That joins a request-scoped fan-in, but if the spawning method's
	// receiver type has a Close method, Close cannot wait on it.
	if j.sent != "" {
		if receiverHasClose(pass, decl) {
			pass.Reportf(g.Pos(),
				"goroutine joins only through a send on %s; %s's receiver has a Close method, so join it with a WaitGroup that Close waits on",
				j.sent, decl.Name.Name)
		}
		return
	}

	pass.Reportf(g.Pos(),
		"goroutine in %s has no join: signal a WaitGroup whose Add precedes the spawn",
		decl.Name.Name)
}

// join is what one goroutine body shows of the ways it can be joined,
// gathered in one walk of the body.
type join struct {
	wgDone string // receiver text of the first sync.WaitGroup Done call
	sent   string // channel text of the first send
}

// joins walks a goroutine body once for both join signals.
func joins(pass *analysis.Pass, body *ast.BlockStmt) join {
	var j join
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if j.wgDone == "" && isWaitGroup(pass, n, "Done") {
				j.wgDone = analysis.ExprText(ast.Unparen(n.Fun).(*ast.SelectorExpr).X)
			}
		case *ast.SendStmt:
			if j.sent == "" {
				j.sent = analysis.ExprText(n.Chan)
			}
		}
		return true
	})
	return j
}

// isWaitGroup reports whether call is the named sync.WaitGroup method,
// called through a selector.
func isWaitGroup(pass *analysis.Pass, call *ast.CallExpr, method string) bool {
	callee := analysis.CalleeFunc(pass.TypesInfo, call)
	if callee == nil || callee.Name() != method {
		return false
	}
	recv := callee.Type().(*types.Signature).Recv()
	_, sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return sel && recv != nil && analysis.IsNamedType(recv.Type(), "sync", "WaitGroup")
}

// addBefore reports whether wg.Add(…) on the same receiver text is
// called in ff before the spawn position.
func addBefore(pass *analysis.Pass, ff *analysis.FuncFacts, wg string, goPos token.Pos) bool {
	for _, cs := range pass.Facts.Graph.Calls[ff.Fn] {
		if cs.Call.Pos() < goPos && isWaitGroup(pass, cs.Call, "Add") &&
			analysis.ExprText(ast.Unparen(cs.Call.Fun).(*ast.SelectorExpr).X) == wg {
			return true
		}
	}
	return false
}

// receiverHasClose reports whether decl is a method whose receiver type
// has a Close method.
func receiverHasClose(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.Types[decl.Recv.List[0].Type].Type
	if t == nil {
		return false
	}
	return analysis.HasMethods(t, "Close")
}
