package faultnet

import (
	"errors"
	"net"
	"sync"
)

// Mode selects the fault a Listener injects.
type Mode int

// Modes. Pass is the zero value: traffic flows untouched.
const (
	// Pass forwards traffic untouched.
	Pass Mode = iota
	// Drop closes every new connection at accept time; established
	// connections keep working. It models a server whose accept queue
	// resets newcomers while existing sessions survive.
	Drop
	// Hang stalls every read and write, on established connections and
	// new ones alike, until the connection is closed or the mode changes.
	// It models a wedged server: the peer blocks until its own deadline
	// fires.
	Hang
	// Reset fails reads and writes immediately on every connection and
	// closes new ones at accept time. It models a crashed server: the
	// peer sees a transport error at once.
	Reset
)

// ErrReset is the error reads and writes return under Reset mode.
var ErrReset = errors.New("faultnet: connection reset")

// Listener wraps an inner listener and injects the current mode's fault
// into every connection it accepts. The zero mode is Pass; SetMode takes
// effect immediately, for established connections too.
type Listener struct {
	inner net.Listener

	mu      sync.Mutex
	mode    Mode
	changed chan struct{} // closed and replaced on every SetMode
	drops   int
}

// Wrap returns a fault-injecting listener around ln, starting in Pass mode.
func Wrap(ln net.Listener) *Listener {
	return &Listener{inner: ln, changed: make(chan struct{})}
}

// SetMode switches the injected fault. Connections blocked in Hang mode
// re-check the mode immediately.
func (l *Listener) SetMode(m Mode) {
	l.mu.Lock()
	l.mode = m
	close(l.changed)
	l.changed = make(chan struct{})
	l.mu.Unlock()
}

// Mode returns the current mode.
func (l *Listener) Mode() Mode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mode
}

// state returns the mode together with a channel closed at the next mode
// change, so a blocked connection can wait for either.
func (l *Listener) state() (Mode, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mode, l.changed
}

// Drops returns how many connections were closed at accept time (Drop and
// Reset modes).
func (l *Listener) Drops() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drops
}

// Accept waits for the next connection that survives the current mode:
// under Drop or Reset, incoming connections are closed and counted, and
// Accept keeps waiting.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		mode := l.Mode()
		if mode == Drop || mode == Reset {
			// Counted before the close, which is what the peer can observe.
			l.mu.Lock()
			l.drops++
			l.mu.Unlock()
			_ = c.Close()
			continue
		}
		return &Conn{Conn: c, l: l, closed: make(chan struct{})}, nil
	}
}

// Close closes the inner listener. Accepted connections are unaffected
// (their owner closes them).
func (l *Listener) Close() error { return l.inner.Close() }

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Conn is one accepted connection under fault injection. Reads and writes
// consult the listener's mode on every call.
type Conn struct {
	net.Conn
	l *Listener

	once   sync.Once
	closed chan struct{}
}

// Read reads from the inner connection under the current mode: Hang blocks
// until close or a mode change, Reset fails at once.
func (c *Conn) Read(b []byte) (int, error) {
	for {
		mode, changed := c.l.state()
		switch mode {
		case Hang:
			select {
			case <-c.closed:
				return 0, net.ErrClosed
			case <-changed:
			}
		case Reset:
			_ = c.Close()
			return 0, ErrReset
		default:
			return c.Conn.Read(b)
		}
	}
}

// Write writes to the inner connection under the current mode, with the
// same rules as Read.
func (c *Conn) Write(b []byte) (int, error) {
	for {
		mode, changed := c.l.state()
		switch mode {
		case Hang:
			select {
			case <-c.closed:
				return 0, net.ErrClosed
			case <-changed:
			}
		case Reset:
			_ = c.Close()
			return 0, ErrReset
		default:
			return c.Conn.Write(b)
		}
	}
}

// Close closes the inner connection and unblocks hung reads and writes.
func (c *Conn) Close() error {
	var err error
	c.once.Do(func() {
		close(c.closed)
		err = c.Conn.Close()
	})
	return err
}
