// Package depth exercises lockblock's transitive closure: taint must
// propagate through call chains of arbitrary depth and converge on
// mutual recursion.
package depth

import (
	"net"
	"sync"
	"time"
)

type server struct {
	mu   sync.Mutex
	conn net.Conn
	n    int
}

// l1..l5 is a five-deep chain whose I/O lives only at the bottom.
func (s *server) l5(v []byte) error { _, err := s.conn.Write(v); return err }
func (s *server) l4(v []byte) error { return s.l5(v) }
func (s *server) l3(v []byte) error { return s.l4(v) }
func (s *server) l2(v []byte) error { return s.l3(v) }
func (s *server) l1(v []byte) error { return s.l2(v) }

func (s *server) badDeep(v []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l1(v) // want `call to l1, which may block \(calls \(\*depth\.server\)\.l2: calls \(\*depth\.server\)\.l3: calls \(\*depth\.server\)\.l4: calls \(\*depth\.server\)\.l5: conn write \(a\.go:19\)\), while \(\*depth\.server\)\.mu is held`
}

// ping and pong call each other; the closure must converge and taint
// both, since ping sleeps.
func (s *server) ping(n int) {
	if n > 0 {
		s.pong(n - 1)
	}
	time.Sleep(time.Millisecond)
}

func (s *server) pong(n int) {
	if n > 0 {
		s.ping(n - 1)
	}
}

func (s *server) badMutual() {
	s.mu.Lock()
	s.pong(3) // want `call to pong, which may block \(calls \(\*depth\.server\)\.ping: time\.Sleep \(a\.go:37\)\), while \(\*depth\.server\)\.mu is held`
	s.mu.Unlock()
}

// pure chains never touch I/O: holding the lock across them is fine.
func (s *server) p3() int { s.n++; return s.n }
func (s *server) p2() int { return s.p3() }
func (s *server) p1() int { return s.p2() }

func (s *server) okPure() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p1()
}

// okUnlocked runs the deep chain with no lock held.
func (s *server) okUnlocked(v []byte) error {
	return s.l1(v)
}
