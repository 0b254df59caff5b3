package faultnet

import (
	"net"
	"sync/atomic"
)

// Counts tallies the syscall-shaped events on one side of a connection:
// each Read and Write that reaches the wrapped conn, and the bytes they
// moved. Where a timing drifts with the host, these repeat exactly, so
// tests can hold a wire path to a writes-per-operation floor the way
// testing.AllocsPerRun holds it to an allocation floor.
type Counts struct {
	Reads, Writes, ReadBytes, WriteBytes atomic.Int64
}

type countedConn struct {
	net.Conn
	c *Counts
}

// CountConn returns conn with every Read and Write tallied into c: a Write
// when it is issued, a Read when it returns (one still blocked has not
// been counted). Either way the tally precedes anything the peer can see
// of the call, so whoever holds the reply holds the counts behind it.
func CountConn(conn net.Conn, c *Counts) net.Conn {
	return countedConn{conn, c}
}

func (cc countedConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.Reads.Add(1)
	cc.c.ReadBytes.Add(int64(n))
	return n, err
}

func (cc countedConn) Write(p []byte) (int, error) {
	cc.c.Writes.Add(1)
	cc.c.WriteBytes.Add(int64(len(p)))
	return cc.Conn.Write(p)
}

type countedListener struct {
	net.Listener
	c *Counts
}

// CountListener returns ln with every connection it accepts tallied into
// the one c: the listening side's totals.
func CountListener(ln net.Listener, c *Counts) net.Listener {
	return countedListener{ln, c}
}

func (cl countedListener) Accept() (net.Conn, error) {
	conn, err := cl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return CountConn(conn, cl.c), nil
}
