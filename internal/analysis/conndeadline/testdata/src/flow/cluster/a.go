// Package clusterflow exercises conndeadline's call-graph rules: a helper's
// unguarded I/O is reported at the I/O whoever calls it, unguarded calls to
// UnguardedIO functions at the call site — across packages too — and the
// read a conn-closing owner's Read forwards is exempt.
// (The directory is named "cluster" so the testdata package path lands in
// the analyzer's scope.)
package clusterflow

import (
	"bufio"
	"net"
	"time"

	"namecoherence/internal/analysis/conndeadline/testdata/src/flow/cluster/inner"
)

type client struct {
	conn net.Conn
}

// roundTrip is reported at its own I/O although both of its call sites set
// a deadline first: a helper sets the deadline for the I/O it does. Its
// guarded callers are not reported.
func (c *client) roundTrip(req, resp []byte) error {
	if _, err := c.conn.Write(req); err != nil { // want `conn write without a preceding SetDeadline in roundTrip`
		return err
	}
	_, err := c.conn.Read(resp) // want `conn read without a preceding SetDeadline in roundTrip`
	return err
}

func (c *client) caller1(req, resp []byte) error {
	_ = c.conn.SetDeadline(time.Now().Add(time.Second))
	return c.roundTrip(req, resp)
}

func (c *client) caller2(req, resp []byte) error {
	if err := c.conn.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	return c.roundTrip(req, resp)
}

// leaky has one unguarded call site: the helper is reported at its I/O
// and the bad caller at its call.
func (c *client) leaky(resp []byte) error {
	_, err := c.conn.Read(resp) // want `conn read without a preceding SetDeadline in leaky`
	return err
}

func (c *client) badCaller(resp []byte) error {
	return c.leaky(resp) // want `call to leaky, which performs wire I/O without its own deadline, must follow a SetDeadline in badCaller`
}

func (c *client) okCaller(resp []byte) error {
	_ = c.conn.SetReadDeadline(time.Now().Add(time.Second))
	return c.leaky(resp)
}

// An exported helper is reported at its I/O even when every local call
// site is guarded.
func (c *client) Exported(resp []byte) error {
	_, err := c.conn.Read(resp) // want `conn read without a preceding SetDeadline in Exported`
	return err
}

func (c *client) callsExported(resp []byte) error {
	_ = c.conn.SetDeadline(time.Now().Add(time.Second))
	return c.Exported(resp)
}

// asValue is also used as a function value; it is reported at its I/O
// like any other helper.
func (c *client) asValue(resp []byte) error {
	_, err := c.conn.Read(resp) // want `conn read without a preceding SetDeadline in asValue`
	return err
}

func (c *client) storesValue(resp []byte) error {
	_ = c.conn.SetDeadline(time.Now().Add(time.Second))
	f := c.asValue
	return f(resp)
}

// server's idle read is exempt: its serve loop fills a bufio.Reader
// through server.Read, which forwards to the conn, so the loop's wait for
// the peer is that forwarded read. It blocks until the peer speaks, and
// server.Close closes the conn out from under it.
type server struct {
	conn net.Conn
	br   *bufio.Reader
}

func (s *server) Close() error {
	return s.conn.Close()
}

func (s *server) Read(p []byte) (int, error) {
	return s.conn.Read(p)
}

func (s *server) serveLoop() error {
	s.br = bufio.NewReader(s)
	for {
		if _, err := s.br.ReadByte(); err != nil {
			return err
		}
	}
}

// rawServer's Close closes its conn too, but its loop reads the conn
// itself: a bare loop is no exemption, so the read is reported.
type rawServer struct {
	conn net.Conn
}

func (s *rawServer) Close() error {
	return s.conn.Close()
}

func (s *rawServer) loop() error {
	for {
		var req [1]byte
		if _, err := s.conn.Read(req[:]); err != nil { // want `conn read without a preceding SetDeadline in loop`
			return err
		}
	}
}

// badCross calls the imported helper unguarded: the UnguardedIO fact
// crossed the package boundary to get this reported.
func badCross(conn net.Conn) error {
	var n [1]byte
	return inner.RoundTrip(conn, n[:], n[:]) // want `call to inner\.RoundTrip, which performs wire I/O without its own deadline, must follow a SetDeadline in badCross`
}

// okCross guards the same call.
func okCross(conn net.Conn) error {
	_ = conn.SetDeadline(time.Now().Add(time.Second))
	var n [1]byte
	return inner.RoundTrip(conn, n[:], n[:])
}

// flushingConn is an io.Reader adapter over its conn: the serve loop's
// buffered reader fills through Read, which does its bookkeeping and
// passes the caller's slice on. It is the idle read one call further
// down, and flushingConn.Close closes the conn under it: exempt.
type flushingConn struct {
	conn   net.Conn
	parked bool
}

func (f *flushingConn) Close() error {
	return f.conn.Close()
}

func (f *flushingConn) Read(p []byte) (int, error) {
	f.parked = true
	n, err := f.conn.Read(p)
	f.parked = false
	return n, err
}

// leakyReader has the same shape, but its Close closes no conn, so
// nothing can unhang the forwarded read: the exemption does not apply.
type leakyReader struct {
	conn net.Conn
	done bool
}

func (l *leakyReader) Close() error {
	l.done = true
	return nil
}

func (l *leakyReader) Read(p []byte) (int, error) {
	return l.conn.Read(p) // want `conn read without a preceding SetDeadline in Read`
}

// header is owned like flushingConn but is no adapter: it reads into a
// buffer of its own, for a caller that did not ask to block on the conn.
type header struct {
	conn net.Conn
}

func (h *header) Close() error {
	return h.conn.Close()
}

func (h *header) Read(p []byte) (int, error) {
	var magic [4]byte
	if _, err := h.conn.Read(magic[:]); err != nil { // want `conn read without a preceding SetDeadline in Read`
		return 0, err
	}
	return copy(p, magic[:]), nil
}
