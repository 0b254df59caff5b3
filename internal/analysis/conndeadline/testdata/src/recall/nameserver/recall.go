// Package nameserver reproduces the shapes of the two deadline bugs
// conndeadline caught when the suite was first run over the name server,
// each beside the form it was fixed to. The buggy lines must keep firing and the fixed forms must stay
// silent. (The directory is named nameserver so the package path lands in
// the analyzer's scope.)
package nameserver

import (
	"net"
	"time"
)

// serveWriteTimeout bounds one response write: a client that stops reading
// must not pin the connection's writer forever.
const serveWriteTimeout = 10 * time.Second

// server serves one connection; Close closes it, which is what unhangs
// the idle request read below.
type server struct {
	conn net.Conn
}

func (s *server) Close() error {
	return s.conn.Close()
}

// Server.ServeConn, before the fix: the request read is the idle read Close
// unhangs, but the response went out with no deadline, so a peer that
// stopped reading wedged the server's writer.
func (s *server) ServeConn() error {
	for {
		var req [1]byte
		if _, err := s.conn.Read(req[:]); err != nil {
			return err
		}
		if _, err := s.conn.Write(req[:]); err != nil { // want `conn write without a preceding SetDeadline in ServeConn`
			return err
		}
	}
}

// Fixed: every response write is bounded by serveWriteTimeout.
func (s *server) ServeConnFixed() error {
	for {
		var req [1]byte
		if _, err := s.conn.Read(req[:]); err != nil {
			return err
		}
		_ = s.conn.SetWriteDeadline(time.Now().Add(serveWriteTimeout))
		if _, err := s.conn.Write(req[:]); err != nil {
			return err
		}
	}
}

// nameserver.Dial, before the fix: a raw net.Dial, so a black-holed address hung
// the caller for the kernel's connect timeout.
func Dial(network, addr string) (net.Conn, error) {
	return net.Dial(network, addr) // want `raw net\.Dial is unbounded`
}

// Fixed: the dial is bounded.
func DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, addr, timeout)
}
