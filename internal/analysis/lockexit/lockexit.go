// Package lockexit flags Lock/RLock acquisitions that can flow to a
// return without a reachable Unlock: the early-error-return that forgets
// to release, the classic way a server wedges permanently on a path the
// tests never exercise. It reports from the facts layer's LockExits — one
// event per return, and per reachable closing brace, taken with locks
// held, from the same statement-order scan lockorder and lockblock read
// (analysis.lockFlow). That scan is defer-aware — `defer mu.Unlock()`, or
// a deferred closure that unlocks mu, discharges the obligation on every
// path — and scans branch bodies with a copy of the entry state, so the
// `if cond { mu.Unlock(); return }` idiom stays clean while `mu.Lock(); if
// err != nil { return err }` is caught. Goroutine and escaping literals
// are bodies of their own, so `go func() { mu.Lock(); … }()` with no
// release is caught at the literal.
//
// A lock is named here by the source text of its receiver expression,
// which is what the scan matches releases on. A release handed out of the
// body — a returned unlocker closure, an Unlock method value — is not one
// the body makes, so the return that hands it out is reported.
package lockexit

import "namecoherence/internal/analysis"

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
				// release.
				if h.Deferred || h.Pos < ex.Body.Pos() || h.Pos >= ex.Body.End() {
					continue
				}
				pass.Reportf(ex.Pos, "%s while %s is held (locked at line %d) with no deferred or reachable Unlock on this path",
					what, h.Text, pass.Fset.Position(h.Pos).Line)
			}
		}
	}
	return nil, nil
}
