package nameserver

import (
	"net"
	"time"
)

// deadlineWriter is the io.Writer under each end's bufio.Writer. A write
// bound is a liveness backstop, not a precise timer — a hung peer must
// fail the write within bound, and anywhere inside it is correct — so the
// conn's write deadline is re-armed lazily, at half horizon, and rides
// across writes: a stuck write dies between half the bound and the full
// bound after it starts. Arming here rather than where frames are encoded
// costs one clock reading per syscall instead of one per frame, and covers
// the write bufio issues on its own when a burst outgrows its buffer.
// Guarded by whatever guards the bufio.Writer above it (the write token).
type deadlineWriter struct {
	conn  net.Conn
	bound time.Duration
	armed time.Time // the deadline currently set on conn
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if now := time.Now(); w.armed.Sub(now) < w.bound/2 {
		w.armed = now.Add(w.bound)
		_ = w.conn.SetWriteDeadline(w.armed)
	}
	return w.conn.Write(p)
}
