package nameserver

// Regression tests for the client's locking discipline: no mutex is held
// across wire I/O. An in-flight round-trip against a stalled server must
// not block Stats() or cache-hit resolutions — under the old single-mutex
// design both deadlocked until the server answered.

import (
	"net"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// stallServer answers the first n requests from its end of the pipe, then
// reads one more request and hangs until release is closed.
func stallServer(t *testing.T, conn net.Conn, n int, release <-chan struct{}) {
	t.Helper()
	go func() {
		defer conn.Close()
		r, ok := fakeServer(conn, binaryMagic)
		for k := 0; ok && k < n; k++ {
			var req request
			if req, ok = r.recvReq(); ok {
				ok = r.sendResp(response{ID: req.ID, Ent: uint64(k + 1), Kind: 1, Rev: 1})
			}
		}
		if ok {
			_, ok = r.recvReq()
		}
		if ok {
			<-release // hold the round-trip open
		}
	}()
}

// promptly fails the test unless fn returns within two seconds.
func promptly(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s blocked behind an in-flight round-trip", what)
	}
}

func TestStatsNotBlockedByInflightResolve(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	release := make(chan struct{})
	stallServer(t, serverConn, 0, release)

	c := NewClient(clientConn, WithCache(4))
	defer c.Close()

	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		_, _ = c.Resolve(core.Path{"stuck"})
	}()

	// Wait until the round-trip is actually on the wire (the stalled
	// server has decoded the request and is holding the token).
	time.Sleep(50 * time.Millisecond)

	promptly(t, "Stats", func() { c.Stats() })
	promptly(t, "Invalidations", func() { c.Invalidations() })

	close(release)
	<-inflight
}

func TestCacheHitNotBlockedByInflightResolve(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	release := make(chan struct{})
	stallServer(t, serverConn, 1, release)

	c := NewClient(clientConn, WithCache(4))
	defer c.Close()

	// Warm the cache with the one answered request.
	warm, err := c.Resolve(core.Path{"warm"})
	if err != nil {
		t.Fatalf("warm resolve: %v", err)
	}

	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		_, _ = c.Resolve(core.Path{"stuck"})
	}()
	time.Sleep(50 * time.Millisecond)

	promptly(t, "cache-hit Resolve", func() {
		e, err := c.Resolve(core.Path{"warm"})
		if err != nil {
			t.Errorf("cached resolve: %v", err)
		}
		if e != warm {
			t.Errorf("cached resolve returned %v, want %v", e, warm)
		}
	})

	hits, _ := c.Stats()
	if hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}

	close(release)
	<-inflight
}
