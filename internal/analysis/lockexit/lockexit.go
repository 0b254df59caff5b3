// Package lockexit flags Lock/RLock acquisitions that can flow to a
// return without a reachable Unlock: the early-error-return that forgets
// to release, the classic way a server wedges permanently on a path the
// tests never exercise. It reports from the facts layer's LockExits — one
// event per return, and per reachable closing brace, taken with locks
// held, from the same statement-order scan lockorder and lockblock read
// (analysis.lockFlow). That scan is defer-aware — `defer mu.Unlock()`
// discharges the obligation on every path — and scans branch bodies with
// a copy of the entry state, so the `if cond { mu.Unlock(); return }`
// idiom stays clean while `mu.Lock(); if err != nil { return err }` is
// caught. Goroutine and escaping literals are bodies of their own, so
// `go func() { mu.Lock(); … }()` with no release is caught at the literal.
//
// A lock is named here by the source text of its receiver expression,
// which is what the scan matches releases on. Guard patterns are
// exonerated conservatively: a lock whose Unlock is referenced as a method
// value or from inside any function literal in the body (a returned
// unlocker, a deferred cleanup closure) is assumed intentionally escorted
// out and is never reported in that body.
package lockexit

import (
	"go/ast"

	"namecoherence/internal/analysis"
)

// Analyzer is the lockexit analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockexit",
	Doc:  "flags Lock paths that can return without a reachable Unlock (defer-aware, error-path sensitive)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, ff := range pass.Facts.Own {
		for _, ex := range ff.LockExits {
			what := "return"
			if ex.Pos == ex.Body.Rbrace {
				what = "function ends"
			}
			for _, h := range ex.Held {
				// A lock taken outside this body (an immediately-invoked
				// literal inherits its caller's) is not this body's to
				// release. Undischarged holds are rare enough that the
				// escort scan is not worth caching.
				if h.Deferred || h.Pos < ex.Body.Pos() || h.Pos >= ex.Body.End() ||
					escortedLocks(pass, ex.Body)[h.Text] {
					continue
				}
				pass.Reportf(ex.Pos, "%s while %s is held (locked at line %d) with no deferred or reachable Unlock on this path",
					what, h.Text, pass.Fset.Position(h.Pos).Line)
			}
		}
	}
	return nil, nil
}

// escortedLocks collects lock names whose Unlock/RUnlock is referenced
// inside a nested function literal or as a method value anywhere in the
// body — guard objects and unlocker closures whose release happens beyond
// this function's text.
func escortedLocks(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	escorted := make(map[string]bool)
	called := make(map[ast.Expr]bool) // selectors in call position
	inLit := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			inLit++
			ast.Inspect(node.Body, walk)
			inLit--
			return false
		case *ast.CallExpr:
			called[ast.Unparen(node.Fun)] = true
		case *ast.SelectorExpr:
			if (node.Sel.Name == "Unlock" || node.Sel.Name == "RUnlock") &&
				(inLit > 0 || !called[node]) && analysis.IsMutexOp(pass.TypesInfo, node) {
				escorted[analysis.ExprText(node.X)] = true
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return escorted
}
