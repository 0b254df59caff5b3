package nameserver

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// exportedTree builds a world with a small exported tree.
func exportedTree(t *testing.T) (*core.World, *dirtree.Tree, core.Entity) {
	t.Helper()
	w := core.NewWorld()
	tr := dirtree.New(w, "export")
	f, err := tr.Create(core.ParsePath("usr/bin/ls"), "#!ls")
	if err != nil {
		t.Fatal(err)
	}
	return w, tr, f
}

// pipeClient starts a server over one end of a pipe and returns a client on
// the other. Cleanup closes both.
func pipeClient(t *testing.T, s *Server, opts ...ClientOption) *Client {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ServeConn(serverEnd)
	}()
	c := NewClient(clientEnd, opts...)
	t.Cleanup(func() {
		_ = c.Close()
		wg.Wait()
	})
	return c
}

func TestResolveOverPipe(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	got, err := c.Resolve(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("Resolve = %v, want %v", got, f)
	}
	if s.Metrics().Served != 1 {
		t.Fatalf("Served = %d", s.Metrics().Served)
	}
}

func TestResolveRemoteError(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	_, err := c.Resolve(core.ParsePath("no/such/file"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestResolveSequence(t *testing.T) {
	w, tr, _ := exportedTree(t)
	if _, err := tr.Create(core.ParsePath("etc/motd"), "hello"); err != nil {
		t.Fatal(err)
	}
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	paths := []string{"usr", "usr/bin", "usr/bin/ls", "etc/motd"}
	for _, p := range paths {
		if _, err := c.Resolve(core.ParsePath(p)); err != nil {
			t.Fatalf("resolve %q: %v", p, err)
		}
	}
	if s.Metrics().Served != len(paths) {
		t.Fatalf("Served = %d, want %d", s.Metrics().Served, len(paths))
	}
}

func TestClientCache(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithCache(16))

	p := core.ParsePath("usr/bin/ls")
	for i := 0; i < 5; i++ {
		got, err := c.Resolve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != f {
			t.Fatalf("Resolve = %v", got)
		}
	}
	if m := c.Metrics(); m.Hits != 4 || m.Misses != 1 {
		t.Fatalf("hits, misses = (%d, %d), want (4, 1)", m.Hits, m.Misses)
	}
	if served := s.Metrics().Served; served != 1 {
		t.Fatalf("Served = %d, want 1 (cache should absorb repeats)", served)
	}
}

func TestClientCacheEviction(t *testing.T) {
	w, tr, _ := exportedTree(t)
	for _, n := range []string{"a", "b", "c"} {
		if _, err := tr.Create(core.ParsePath("dir/"+n), n); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithCache(1))

	if _, err := c.Resolve(core.ParsePath("dir/a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(core.ParsePath("dir/b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(core.ParsePath("dir/a")); err != nil {
		t.Fatal(err)
	}
	misses := c.Metrics().Misses
	if misses != 3 {
		t.Fatalf("misses = %d, want 3 (size-1 cache thrashes)", misses)
	}
}

// The cache is deliberately not invalidated: after a server-side rebinding
// a cached client keeps the stale meaning, while an uncached client sees
// the new one. (This is the coherence hazard of name caches.)
func TestCacheStaleness(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	cached := pipeClient(t, s, WithCache(8))
	uncached := pipeClient(t, s)

	p := core.ParsePath("usr/bin/ls")
	if _, err := cached.Resolve(p); err != nil {
		t.Fatal(err)
	}

	// Rebind usr/bin/ls to a new file.
	binDir, err := tr.Lookup(core.ParsePath("usr/bin"))
	if err != nil {
		t.Fatal(err)
	}
	binCtx, _ := w.ContextOf(binDir)
	newLs := w.NewObject("new-ls")
	binCtx.Bind("ls", newLs)

	gotCached, err := cached.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	gotFresh, err := uncached.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotCached != f {
		t.Fatal("cached client should keep the stale entity")
	}
	if gotFresh != newLs {
		t.Fatal("uncached client should see the new binding")
	}
}

// The plain cache ignores revisions entirely: a bump the client could have
// learned of changes nothing, and the repeat is still a hit.
func TestPlainCacheIgnoresRevisions(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithCache(16))

	p := core.ParsePath("usr/bin/ls")
	if _, err := c.Resolve(p); err != nil {
		t.Fatal(err)
	}
	s.Bump()
	if _, err := c.Resolve(core.ParsePath("usr/bin")); err != nil { // a round-trip at revision 1
		t.Fatal(err)
	}
	got, err := c.Resolve(p) // hit: no revision check possible
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); got != f || m.Hits != 1 || m.Misses != 2 {
		t.Fatalf("plain cache after a bump: %v, %d hits, %d misses; want %v, 1, 2", got, m.Hits, m.Misses, f)
	}
}

// TestManualBump: Bump advances the revision, and every response carries
// the revision current when it was answered — what a revision-tracked cache
// above this client (cluster.Client) purges by.
func TestManualBump(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	if s.Revision() != 0 {
		t.Fatal("fresh revision not 0")
	}
	s.Bump()
	s.Bump()
	if s.Revision() != 2 {
		t.Fatalf("Revision = %d", s.Revision())
	}

	c := pipeClient(t, s)
	if _, _, rev, err := c.ResolveRev(core.ParsePath("usr/bin/ls")); err != nil || rev != 2 {
		t.Fatalf("first response: revision %d, %v; want 2", rev, err)
	}
	s.Bump()
	if _, _, rev, err := c.ResolveRev(core.ParsePath("usr/bin")); err != nil || rev != 3 {
		t.Fatalf("response after a bump: revision %d, %v; want 3", rev, err)
	}
}

func TestServeOverTCP(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ln)
	}()

	c1, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []*Client{c1, c2} {
		got, err := c.Resolve(core.ParsePath("usr/bin/ls"))
		if err != nil {
			t.Fatal(err)
		}
		if got != f {
			t.Fatalf("Resolve = %v", got)
		}
	}
	_ = c1.Close()
	_ = c2.Close()
	s.Close()
	<-done

	// Resolving after server close fails.
	if _, err := c1.Resolve(core.ParsePath("usr")); err == nil {
		t.Fatal("resolve after close succeeded")
	}
}

// TestServerCloseDuringSubscribePush closes the server while a subscribed
// connection is being pushed to, with Bumps racing the teardown the whole
// way. The shutdown chain — conn close fails the workers' decodes, workers
// drain, ServeConn leaves the subscriber set under mu, closes pushC, and
// joins the pusher — must neither deadlock Close (which waits for every
// handler) nor leak the pusher goroutine parked on its wake-up channel.
func TestServerCloseDuringSubscribePush(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve(ln)
	}()
	baseline := runtime.NumGoroutine()

	c, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pushed := make(chan uint64, 1)
	err = c.Subscribe(func(rev uint64) {
		select {
		case pushed <- rev:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Hammer offers onto the pusher channel while the teardown runs.
	stop := make(chan struct{})
	var bumps sync.WaitGroup
	bumps.Add(1)
	go func() {
		defer bumps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Bump()
			}
		}
	}()

	// Wait for one frame so the push path is live, then tear down under it.
	select {
	case <-pushed:
	case <-time.After(5 * time.Second):
		t.Fatal("no push frame arrived before close")
	}
	s.Close() // must return: every ServeConn joins its pusher first
	close(stop)
	bumps.Wait()
	<-served
	_ = c.Close()

	// Every server- and client-side goroutine must unwind; a stuck pusher
	// shows up as a count that never returns to the pre-dial baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after close:\n%s", buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.Close()
	s.Close()
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("tcp", "127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = c.Close() }()
			for j := 0; j < 20; j++ {
				got, err := c.Resolve(core.ParsePath("usr/bin/ls"))
				if err != nil {
					errs <- err
					return
				}
				if got != f {
					errs <- errors.New("wrong entity")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
