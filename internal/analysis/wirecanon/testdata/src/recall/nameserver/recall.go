// Package nameserver reproduces the shape of the unrouted write path
// wirecanon caught in the cluster client's writeConn when writes first
// went over the wire, beside the form it was fixed to. The buggy function must
// keep firing and the fixed form must stay silent. (The directory is named
// nameserver so the package path lands in the analyzer's scope.)
package nameserver

import (
	"errors"
	"net"
	"time"

	"namecoherence/internal/core"
)

// canonical is the fixture's §6 conversion point.
//
//namingvet:canonicalizer
func canonical(p core.Path) ([]string, error) {
	out := make([]string, len(p))
	for i, n := range p {
		if n == "" || n == "." || n == ".." {
			return nil, errors.New("non-canonical component")
		}
		out[i] = string(n)
	}
	return out, nil
}

type client struct {
	addrs   []string
	timeout time.Duration
}

// shardFor routes a name by its first component.
func (c *client) shardFor(p core.Path) int {
	if len(p) == 0 {
		return 0
	}
	return len(p[0]) % len(c.addrs)
}

// dialPrimary dials a shard's primary and sends the version hello.
func (c *client) dialPrimary(shard int) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", c.addrs[shard], c.timeout)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(c.timeout))
	if _, err := conn.Write([]byte{0xB2}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// cluster.Client.writeConn, before the fix: the written name was routed and its
// shard dialled before anything canonicalized it, so a relative or
// separator-bearing name picked a shard and burned a connection.
func (c *client) writeConn(dir core.Path, name core.Name) (net.Conn, error) { // want `writeConn takes a core\.Path and reaches wire I/O but never canonicalizes a name`
	full := append(append(core.Path{}, dir...), name)
	return c.dialPrimary(c.shardFor(full))
}

// Fixed: a non-canonical name fails before the dial.
func (c *client) writeConnFixed(dir core.Path, name core.Name) (net.Conn, error) {
	full := append(append(core.Path{}, dir...), name)
	if _, err := canonical(full); err != nil {
		return nil, err
	}
	return c.dialPrimary(c.shardFor(full))
}
