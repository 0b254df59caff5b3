// Package recall holds the shapes lockexit guards, beside the forms the
// server's write path uses instead. CHANGES.md credits the analyzer with
// no caught bug, so these are the guarded shapes, not a past finding: a
// write that returns its refusal with the write mutex held, and a commit
// hook that falls off its end holding it, must keep firing; the deferred
// unlock and the unlock before the early return must stay silent.
package recall

import (
	"errors"
	"sync"
)

var errReadOnly = errors.New("server is read-only")

// Server serializes writes under wmu.
type Server struct {
	wmu      sync.Mutex
	readOnly bool
	rev      uint64
}

// applyRefusing returns its refusal with wmu still held: every later
// write wedges.
func (s *Server) applyRefusing() (uint64, error) {
	s.wmu.Lock()
	if s.readOnly {
		return 0, errReadOnly // want `return while s\.wmu is held \(locked at line \d+\) with no deferred or reachable Unlock on this path`
	}
	s.rev++
	rev := s.rev
	s.wmu.Unlock()
	return rev, nil
}

// apply is the shipped form: the unlock is deferred.
func (s *Server) apply() (uint64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.readOnly {
		return 0, errReadOnly
	}
	s.rev++
	return s.rev, nil
}

// applyEarlyUnlock releases before the early return: also silent.
func (s *Server) applyEarlyUnlock() (uint64, error) {
	s.wmu.Lock()
	if s.readOnly {
		s.wmu.Unlock()
		return 0, errReadOnly
	}
	s.rev++
	rev := s.rev
	s.wmu.Unlock()
	return rev, nil
}

// commitAsync bumps in a goroutine that never lets go of wmu.
func (s *Server) commitAsync() {
	go func() {
		s.wmu.Lock()
		s.rev++
	}() // want `function ends while s\.wmu is held \(locked at line \d+\) with no deferred or reachable Unlock on this path`
}

// commit is the fixed form of the same goroutine.
func (s *Server) commit() {
	go func() {
		s.wmu.Lock()
		defer s.wmu.Unlock()
		s.rev++
	}()
}
