// Package cluster pins conndeadline's handoff rule: a conn passed as an
// io.Reader or io.Writer to a function the facts layer has no summary for
// (bufio, io) does its I/O there, where no deadline rule can look, so the
// handoff itself is reported. A conn's owner fills a bufio.Reader through
// a Read of its own and drains a bufio.Writer through a deadline-arming
// Write instead. (The directory is named cluster so the package path
// lands in the analyzer's scope.)
package cluster

import (
	"bufio"
	"io"
	"net"
	"os"
	"time"
)

func newClient(conn net.Conn) *client {
	return &client{conn: conn, br: bufio.NewReader(conn)} // want `conn handed to bufio\.NewReader`
}

type client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	wd   deadlineWriter
}

func readHeader(conn net.Conn, b []byte) error {
	_, err := io.ReadFull(conn, b) // want `conn handed to io\.ReadFull`
	return err
}

func relay(conn net.Conn, r io.Reader) error {
	_, err := io.Copy(conn, r) // want `conn handed to io\.Copy`
	return err
}

// newOwnedClient is the fixed form: br fills through client.Read, which
// forwards to the conn (the exempt idle read: Close closes the conn), and
// bw drains through a writer that arms the write deadline first.
func newOwnedClient(conn net.Conn) *client {
	c := &client{conn: conn, wd: deadlineWriter{conn: conn}}
	c.br = bufio.NewReader(c)
	c.bw = bufio.NewWriter(&c.wd)
	return c
}

func (c *client) Read(p []byte) (int, error) {
	return c.conn.Read(p)
}

func (c *client) Close() error {
	return c.conn.Close()
}

type deadlineWriter struct {
	conn net.Conn
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	_ = w.conn.SetWriteDeadline(time.Now().Add(time.Second))
	return w.conn.Write(p)
}

// A file has SetDeadline too, but file I/O is no transport concern.
func copyFile(f *os.File, r io.Reader) error {
	_, err := io.Copy(f, bufio.NewReader(r))
	return err
}
