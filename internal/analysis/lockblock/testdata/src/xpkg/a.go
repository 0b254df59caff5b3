// Package xpkg exercises lockblock's cross-package rule for wire-class
// blocking: a call to an imported function whose MayPark fact is set, made
// while a mutex is held, is reported at the call site.
package xpkg

import (
	"sync"

	"namecoherence/internal/analysis/lockblock/testdata/src/xpkg/inner"
)

type guard struct {
	mu sync.Mutex
	n  int
}

func (g *guard) bad() {
	g.mu.Lock()
	inner.Blocking() // want `call to Blocking, which may block \(time\.Sleep \(inner\.go:8\)\), while \(\*xpkg\.guard\)\.mu is held`
	g.mu.Unlock()
}

func (g *guard) badTransitive() {
	g.mu.Lock()
	defer g.mu.Unlock()
	inner.Wrapper() // want `call to Wrapper, which may block \(calls inner\.Blocking: time\.Sleep \(inner\.go:8\)\), while \(\*xpkg\.guard\)\.mu is held`
}

func (g *guard) okPure() {
	g.mu.Lock()
	g.n = inner.Pure()
	g.mu.Unlock()
}

func (g *guard) okUnlocked() {
	inner.Blocking()
}
