// Package goroleak requires every goroutine spawned in the serving
// packages (internal/cluster, internal/nameserver) to be joinable before
// its owner's Close returns: the
// goroutine must signal a sync.WaitGroup whose Add precedes the spawn,
// close a done channel that the spawner actually consumes or stores, or
// block on a stop/context signal. A goroutine nothing waits for outlives
// Close, races teardown, and — under the paper's coherence lens — keeps
// resolving names against a world that has already moved on.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"namecoherence/internal/analysis"
)

// Analyzer is the goroleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "requires every go statement in serving packages to be joined (WaitGroup, done channel, or stop signal) before Close returns",
	Run:  run,
	// Scope limits the analyzer to the long-running serving packages.
	Scope: []string{"cluster", "nameserver"},
}

func run(pass *analysis.Pass) (any, error) {
	for _, ff := range pass.Facts.Own {
		decl := ff.Decl
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGo(pass, decl, g)
			return true
		})
	}
	return nil, nil
}

// checkGo classifies one go statement's join discipline. The rules are
// ordered strongest-first; the first matching one decides.
func checkGo(pass *analysis.Pass, decl *ast.FuncDecl, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		pass.Reportf(g.Pos(),
			"go %s spawns a named function with no join; wrap it in a func literal that signals a WaitGroup or closes a done channel",
			analysis.ExprText(g.Call.Fun))
		return
	}

	// Rule 1: the body signals a WaitGroup. The matching Add must appear
	// lexically before the spawn in the same declaration, or the counter
	// can hit zero early and release a concurrent Wait.
	if wg := wgDoneRecv(pass, lit.Body); wg != "" {
		if !addBefore(pass, decl, wg, g.Pos()) {
			pass.Reportf(g.Pos(),
				"goroutine calls %s.Done, but no %s.Add precedes the go statement in %s",
				wg, wg, decl.Name.Name)
		}
		return
	}

	// Rule 2: the body closes a done channel; someone outside the
	// goroutine must consume or store that channel, or the close signals
	// nobody.
	if ch := closedChan(pass, lit); ch != nil {
		if !usedOutside(pass, decl, lit, ch) {
			pass.Reportf(g.Pos(),
				"goroutine closes %s, but %s is never received or stored outside the goroutine; nothing can join it",
				ch.Name(), ch.Name())
		}
		return
	}

	// Rule 3: the body blocks on a stop signal (ctx.Done() or a
	// stop/done/quit channel receive) — a supervised worker.
	if receivesStop(pass, lit.Body) {
		return
	}

	// Rule 4: the body's only link to the spawner is a channel send.
	// That joins a request-scoped fan-in, but if the spawning method's
	// receiver type has a Close method, Close cannot wait on it.
	if ch := sentChan(lit.Body); ch != "" {
		if receiverHasClose(pass, decl) {
			pass.Reportf(g.Pos(),
				"goroutine joins only through a send on %s; %s's receiver has a Close method, so join it with a WaitGroup that Close waits on",
				ch, decl.Name.Name)
		}
		return
	}

	pass.Reportf(g.Pos(),
		"goroutine in %s has no join: signal a WaitGroup whose Add precedes the spawn, close a consumed done channel, or block on a stop signal",
		decl.Name.Name)
}

// wgDoneRecv finds a (*sync.WaitGroup).Done call in body and returns its
// receiver's source text ("" if none).
func wgDoneRecv(pass *analysis.Pass, body *ast.BlockStmt) string {
	out := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if out != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeFunc(pass.TypesInfo, call)
		if callee == nil || callee.Name() != "Done" {
			return true
		}
		recv := callee.Type().(*types.Signature).Recv()
		if recv == nil || !analysis.IsNamedType(recv.Type(), "sync", "WaitGroup") {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = analysis.ExprText(sel.X)
		}
		return false
	})
	return out
}

// addBefore reports whether wg.Add(…) on the same receiver text appears in
// decl before the spawn position.
func addBefore(pass *analysis.Pass, decl *ast.FuncDecl, wg string, goPos token.Pos) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= goPos {
			return true
		}
		callee := analysis.CalleeFunc(pass.TypesInfo, call)
		if callee == nil || callee.Name() != "Add" {
			return true
		}
		recv := callee.Type().(*types.Signature).Recv()
		if recv == nil || !analysis.IsNamedType(recv.Type(), "sync", "WaitGroup") {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && analysis.ExprText(sel.X) == wg {
			found = true
		}
		return false
	})
	return found
}

// closedChan finds a close(ch) in the goroutine body where ch is a simple
// identifier, returning its object (nil if none).
func closedChan(pass *analysis.Pass, lit *ast.FuncLit) types.Object {
	var obj types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "close" || !isBuiltin(pass, id) {
			return true
		}
		if len(call.Args) == 1 {
			if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				obj = pass.TypesInfo.Uses[arg]
			}
		}
		return false
	})
	return obj
}

// usedOutside reports whether obj is referenced in decl outside the
// goroutine literal and outside its own defining statement — received,
// returned, appended to a field, passed along: any of these gives a party
// that can observe the close.
func usedOutside(pass *analysis.Pass, decl *ast.FuncDecl, lit *ast.FuncLit, obj types.Object) bool {
	used := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if used {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if id.Pos() >= lit.Pos() && id.Pos() < lit.End() {
			return true
		}
		used = true
		return false
	})
	return used
}

// receivesStop reports whether body blocks on a shutdown signal: a receive
// from ctx.Done() (any context.Context Done method) or from a channel
// whose name suggests a stop signal.
func receivesStop(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	check := func(e ast.Expr) {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok {
			if callee := analysis.CalleeFunc(pass.TypesInfo, call); callee != nil && callee.Name() == "Done" {
				if recv := callee.Type().(*types.Signature).Recv(); recv != nil {
					found = true
				}
			}
			return
		}
		name := strings.ToLower(analysis.ExprText(e))
		for _, hint := range []string{"stop", "quit", "done", "closing", "shutdown"} {
			if strings.Contains(name, hint) {
				found = true
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" {
				check(node.X)
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[node.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					check(node.X)
				}
			}
		}
		return !found
	})
	return found
}

// sentChan finds a channel send in body and returns the channel's source
// text ("" if none).
func sentChan(body *ast.BlockStmt) string {
	out := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if out != "" {
			return false
		}
		if send, ok := n.(*ast.SendStmt); ok {
			out = analysis.ExprText(send.Chan)
			return false
		}
		return true
	})
	return out
}

// isBuiltin reports whether id resolves to a predeclared builtin (not a
// shadowing user definition).
func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return true // pre-typecheck fallback: unshadowed builtins resolve to nothing
	}
	_, ok := obj.(*types.Builtin)
	return ok
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
