// Package cluster exercises conndeadline: inside transport packages every
// wire I/O call needs a lexically preceding SetDeadline, and raw net.Dial
// is forbidden. (The directory is named cluster so the testdata package
// path lands in the analyzer's scope.)
package cluster

import (
	"net"
	"time"
)

type client struct {
	conn net.Conn
}

// badRoundTrip does wire I/O with no deadline anywhere in the function.
func (c *client) badRoundTrip(req, resp []byte) error {
	if _, err := c.conn.Write(req); err != nil { // want `conn write without a preceding SetDeadline`
		return err
	}
	_, err := c.conn.Read(resp) // want `conn read without a preceding SetDeadline`
	return err
}

// badRead reads the conn raw.
func (c *client) badRead(buf []byte) (int, error) {
	return c.conn.Read(buf) // want `conn read without a preceding SetDeadline`
}

// badDial uses the unbounded dialer.
func badDial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr) // want `raw net\.Dial is unbounded`
}

// okRoundTrip bounds the exchange first.
func (c *client) okRoundTrip(req, resp []byte, d time.Duration) error {
	if err := c.conn.SetDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	if _, err := c.conn.Write(req); err != nil {
		return err
	}
	_, err := c.conn.Read(resp)
	return err
}

// okDial uses the bounded dialer.
func okDial(addr string, d time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, d)
}

// okLazyRearm re-arms the write deadline only when less than half the
// horizon remains — the pipelined client's amortized write bound. The
// Set is condition-wrapped but still lexically precedes the write, which
// is what the analyzer requires: the deadline is a bound, not a precise
// timer, so an armed-in-the-past branch never runs unguarded.
func (c *client) okLazyRearm(req []byte, wdeadline *time.Time, bound time.Duration) error {
	if now := time.Now(); wdeadline.Sub(now) < bound/2 {
		*wdeadline = now.Add(bound)
		_ = c.conn.SetWriteDeadline(*wdeadline)
	}
	_, err := c.conn.Write(req)
	return err
}

// okLeaderRead arms the connection's read deadline with the leading
// call's expiry before entering the read loop — the pipelined client's
// timeout mode, where the leader cannot select on a timer while blocked
// in Read.
func (c *client) okLeaderRead(resp []byte, deadline time.Time) error {
	if !deadline.IsZero() {
		_ = c.conn.SetReadDeadline(deadline)
	}
	for {
		if _, err := c.conn.Read(resp); err != nil {
			return err
		}
	}
}
