// Package a exercises lockblock's wire half: blocking I/O (net.Conn,
// Dial*, Sleep) must not be reachable while a sync mutex is held.
package a

import (
	"net"
	"sync"
	"time"
)

type server struct {
	mu   sync.Mutex
	rwmu sync.RWMutex
	conn net.Conn
	n    int
}

// direct I/O between Lock and Unlock is flagged.
func (s *server) badDirect(v []byte) error {
	s.mu.Lock()
	_, err := s.conn.Write(v) // want `conn write while \(\*a\.server\)\.mu is held`
	s.mu.Unlock()
	return err
}

// a deferred unlock keeps the lock held to the end of the function.
func (s *server) badDeferred(v []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.conn.Read(v) // want `conn read while \(\*a\.server\)\.mu is held`
	return err
}

// read locks count too, and conn I/O and dials are in the blocking set.
func (s *server) badConn(buf []byte) {
	s.rwmu.RLock()
	_, _ = s.conn.Read(buf)               // want `conn read while \(\*a\.server\)\.rwmu is held`
	_, _ = net.Dial("tcp", "127.0.0.1:1") // want `Dial while \(\*a\.server\)\.rwmu is held`
	time.Sleep(time.Millisecond)          // want `time\.Sleep while \(\*a\.server\)\.rwmu is held`
	s.rwmu.RUnlock()
}

// roundTrip performs I/O with no lock of its own: fine here, but it
// taints callers that hold a lock (transitive closure).
func (s *server) roundTrip(v []byte) error {
	if _, err := s.conn.Write(v); err != nil {
		return err
	}
	_, err := s.conn.Read(v)
	return err
}

func (s *server) badIndirect(v []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.roundTrip(v) // want `call to roundTrip, which may block \(conn write \(a\.go:46\)\), while \(\*a\.server\)\.mu is held`
}

// okAfterUnlock releases before the round-trip: the early-exit idiom.
func (s *server) okAfterUnlock(v []byte) error {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return nil
	}
	s.n++
	s.mu.Unlock()
	return s.roundTrip(v)
}

// okGoroutine: a spawned goroutine does not inherit the creator's locks.
func (s *server) okGoroutine(v []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_ = s.roundTrip(v)
	}()
}

// okPlainLock: bookkeeping under a lock without I/O is fine.
func (s *server) okPlainLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// badOtherInstance: unlocking another value of the same type releases
// nothing here — releases match the receiver's text, as lockheld's did,
// not the type-level identity the diagnostic prints.
func (s *server) badOtherInstance(t *server, v []byte) {
	s.mu.Lock()
	t.mu.Unlock()
	_, _ = s.conn.Write(v) // want `conn write while \(\*a\.server\)\.mu is held`
	s.mu.Unlock()
}
