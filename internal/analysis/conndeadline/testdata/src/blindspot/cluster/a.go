// Package cluster pins conndeadline's known blind spot (DESIGN §6): a conn
// wrapped by bufio.NewReader is read inside bufio, where the analyzer sees
// no conn read, so no rule, reporting or exempting, is ever consulted.
// nameserver.Client reads its conn this way. (The directory is named
// cluster so the package path lands in the analyzer's scope.)
package cluster

import (
	"bufio"
	"net"
)

type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func newClient(conn net.Conn) *client {
	return &client{conn: conn, br: bufio.NewReader(conn)}
}

// readReply reads the conn with no deadline anywhere, one bufio.Reader
// away from it: the read badRead makes in ../../cluster, which is reported
// there. The hole is the line below, which has no want. A change that
// makes conndeadline follow a conn into bufio.NewReader closes it and
// gives that line the want `conn read without a preceding SetDeadline`.
func (c *client) readReply() (string, error) {
	return c.br.ReadString('\n')
}
