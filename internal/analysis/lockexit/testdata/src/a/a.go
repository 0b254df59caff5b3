// Positive and negative cases for lockexit: Lock paths that can return
// (or fall off the end) without a reachable Unlock, against the guards —
// defer (of Unlock or of a closure that unlocks) and early unlock; an
// Unlock escorted out in a returned closure or method value is reported.
package a

import (
	"errors"
	"sync"
)

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// ErrorPathLeak unlocks on the happy path but returns early while still
// holding the lock when the guard trips.
func (s *S) ErrorPathLeak(bad bool) error {
	s.mu.Lock()
	if bad {
		return errors.New("bad") // want `return while s\.mu is held \(locked at line 21\) with no deferred or reachable Unlock on this path`
	}
	s.n++
	s.mu.Unlock()
	return nil
}

// FallOffLeak is void and simply runs off the end of the body with the
// lock held.
func (s *S) FallOffLeak() {
	s.mu.Lock()
	s.n++
} // want `function ends while s\.mu is held \(locked at line 33\) with no deferred or reachable Unlock on this path`

// RLockLeak: read locks leak the same way.
func (s *S) RLockLeak(bad bool) int {
	s.rw.RLock()
	if bad {
		return -1 // want `return while s\.rw is held \(locked at line 39\) with no deferred or reachable Unlock on this path`
	}
	n := s.n
	s.rw.RUnlock()
	return n
}

// GoroutineLeak: the spawned literal is its own control flow and falls
// off its end holding the lock.
func (s *S) GoroutineLeak() {
	go func() {
		s.mu.Lock()
		s.n++
	}() // want `function ends while s\.mu is held \(locked at line 52\) with no deferred or reachable Unlock on this path`
}

// DeferIsFine: the canonical pattern.
func (s *S) DeferIsFine(bad bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bad {
		return errors.New("bad")
	}
	s.n++
	return nil
}

// EarlyUnlockIsFine releases before each return.
func (s *S) EarlyUnlockIsFine(bad bool) error {
	s.mu.Lock()
	if bad {
		s.mu.Unlock()
		return errors.New("bad")
	}
	s.n++
	s.mu.Unlock()
	return nil
}

// MethodValueEscort hands the Unlock out as a value for the caller to
// release: the return leaves the lock held, and is reported.
func (s *S) MethodValueEscort() func() {
	s.mu.Lock()
	return s.mu.Unlock // want `return while s\.mu is held \(locked at line 83\) with no deferred or reachable Unlock on this path`
}

// ClosureEscort releases inside a returned closure, which may never run.
func (s *S) ClosureEscort() func() {
	s.mu.Lock()
	return func() { // want `return while s\.mu is held \(locked at line 89\) with no deferred or reachable Unlock on this path`
		s.n++
		s.mu.Unlock()
	}
}

// DeferredClosureIsFine: the deferred literal performs the release.
func (s *S) DeferredClosureIsFine() {
	s.mu.Lock()
	defer func() {
		s.n++
		s.mu.Unlock()
	}()
	s.n++
}

// BranchMergeIsFine unlocks on both arms before returning.
func (s *S) BranchMergeIsFine(bad bool) int {
	s.mu.Lock()
	if bad {
		s.mu.Unlock()
		return -1
	}
	s.mu.Unlock()
	return s.n
}

// PanicPathIsFine: a body ending in panic does not "fall off".
func (s *S) PanicPathIsFine() {
	s.mu.Lock()
	panic("never unlocks, never returns")
}

// BalancedIsFine: a lock released right below leaves nothing held, and
// nothing is reported.
func (s *S) BalancedIsFine() {
	s.mu.Lock()
	s.mu.Unlock()
}

// InlineLiteralReturnIsFine: an immediately-invoked literal runs under its
// caller's lock, and returning from it leaves only the literal — the lock
// is the enclosing body's to release, and it does.
func (s *S) InlineLiteralReturnIsFine() int {
	s.mu.Lock()
	n := func() int { return s.n }()
	s.mu.Unlock()
	return n
}

// DeferredLiteralLeak: a deferred literal is a body of its own too, and
// this one falls off its end holding the lock it took.
func (s *S) DeferredLiteralLeak() {
	defer func() {
		s.mu.Lock()
		s.n++
	}() // want `function ends while s\.mu is held \(locked at line 144\) with no deferred or reachable Unlock on this path`
}
