// Package renamed carries a suppression written for lockheld, the
// analyzer lockblock replaced. The directive names no analyzer that runs,
// so it suppresses nothing: the conn write under the lock still fires, and
// the unused-suppression audit reports the directive itself instead of
// letting it pass for an exemption.
package renamed

import (
	"net"
	"sync"
)

type server struct {
	mu   sync.Mutex
	conn net.Conn
}

func (s *server) push(frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//namingvet:ignore lockheld -- push frames are small // want `unused suppression: this ignore directive names lockheld, which is no analyzer in this run`
	_, err := s.conn.Write(frame) // want `conn write while \(\*renamed\.server\)\.mu is held`
	return err
}
