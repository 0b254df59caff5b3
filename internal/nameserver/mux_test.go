package nameserver

// Tests for the tagged multiplexed wire client: per-call timeouts that
// fail only the hung call, connection poisoning, the out-of-order
// revision-admission rule, and the miss-count fix (a failed RPC is not a
// cache miss served).

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/faultnet"
)

// TestStatsMissCountedOnlyOnSuccess pins the miss-count rule: a miss is
// an uncached resolution that succeeded. Remote failures and transport
// failures leave the counters alone — under the old accounting a dead
// server inflated misses and skewed every hit-ratio experiment.
func TestStatsMissCountedOnlyOnSuccess(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithCache(8))

	if _, err := c.Resolve(core.ParsePath("usr/bin/ls")); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Hits != 0 || m.Misses != 1 {
		t.Fatalf("after uncached success: hits, misses = (%d, %d), want (0, 1)", m.Hits, m.Misses)
	}
	if _, err := c.Resolve(core.ParsePath("usr/bin/ls")); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("after cache hit: hits, misses = (%d, %d), want (1, 1)", m.Hits, m.Misses)
	}

	// A remote failure is a definitive answer but satisfied no miss.
	var re *RemoteError
	if _, err := c.Resolve(core.ParsePath("no/such/name")); !errors.As(err, &re) {
		t.Fatalf("Resolve of a missing name = %v, want RemoteError", err)
	}
	if m := c.Metrics(); m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("after remote failure: hits, misses = (%d, %d), want (1, 1)", m.Hits, m.Misses)
	}

	// Batched: error slots do not count either; successful slots count per
	// slot (duplicates included).
	out, err := c.ResolveBatch([]core.Path{
		core.ParsePath("etc/passwd"), // does not exist: remote error
		core.ParsePath("usr/bin"),    // uncached success
		core.ParsePath("usr/bin"),    // duplicate slot of the same success
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err == nil || out[1].Err != nil || out[2].Err != nil {
		t.Fatalf("batch outcomes = (%v, %v, %v)", out[0].Err, out[1].Err, out[2].Err)
	}
	if m := c.Metrics(); m.Hits != 1 || m.Misses != 3 {
		t.Fatalf("after mixed batch: hits, misses = (%d, %d), want (1, 3)", m.Hits, m.Misses)
	}

	// A transport failure satisfied nothing.
	s.Close()
	if _, err := c.Resolve(core.ParsePath("usr/lib")); err == nil {
		t.Fatal("Resolve against a closed server should fail")
	}
	if m := c.Metrics(); m.Hits != 1 || m.Misses != 3 {
		t.Fatalf("after transport failure: hits, misses = (%d, %d), want (1, 3)", m.Hits, m.Misses)
	}
}

// selectiveServer plays the server on conn: it answers every request except
// single resolves of holdPath, which it withholds until release is
// closed (and then answers, late). It exercises the client against a
// server that is slow on one call but healthy on the rest — something
// faultnet cannot express, since its faults apply to whole connections.
func selectiveServer(t *testing.T, conn net.Conn, holdPath string, release <-chan struct{}) {
	t.Helper()
	go func() {
		defer conn.Close()
		r, ok := fakeServer(conn, binaryMagic)
		var held []request
		for ok {
			var req request
			if req, ok = r.recvReq(); !ok {
				break
			}
			if len(req.Path) == 1 && string(req.Path[0]) == holdPath {
				held = append(held, req)
				continue
			}
			ok = r.sendResp(response{ID: req.ID, Ent: 7, Kind: 1, Rev: 1})
		}
		<-release
		for _, req := range held {
			r.sendResp(response{ID: req.ID, Ent: 9, Kind: 1, Rev: 1})
		}
	}()
}

// TestTimeoutFailsOnlyHungCall pins the per-call deadline semantics: when
// one call times out, calls already in flight keep running to completion
// — only new calls fail fast on the poisoned client. (Under the old
// conn.SetDeadline design a timeout tore down every concurrent call.)
func TestTimeoutFailsOnlyHungCall(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	release := make(chan struct{})
	selectiveServer(t, serverConn, "hang", release)

	c := NewClient(clientConn, WithTimeout(time.Second))
	defer c.Close()

	hungErr := make(chan error, 1)
	go func() {
		_, err := c.Resolve(core.Path{"hang"})
		hungErr <- err
	}()
	// Let the hung call reach the wire, then put a second call in flight
	// behind it; the second is answered immediately and must not wait for
	// the first's timeout.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	if _, err := c.Resolve(core.Path{"ok"}); err != nil {
		t.Fatalf("concurrent call behind the hung one: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("concurrent call took %v; it waited behind the hung call", d)
	}

	// The hung call fails with a timeout at ~1s, and the error satisfies
	// both the sentinel and the net.Error convention.
	err := <-hungErr
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("hung call error = %v, want os.ErrDeadlineExceeded", err)
	}
	var netErr net.Error
	if !errors.As(err, &netErr) || !netErr.Timeout() {
		t.Fatalf("hung call error = %v, want a net.Error timeout", err)
	}

	// The timeout poisoned the client: new calls fail fast (well under the
	// 1s call timeout), with an error that still reads as a timeout so
	// retry policy treats it as a transport failure.
	start = time.Now()
	_, err = c.Resolve(core.Path{"ok"})
	if err == nil {
		t.Fatal("call on a poisoned client should fail")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("poisoned-client error = %v, want to wrap os.ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("poisoned-client call took %v, want fail-fast", d)
	}
	close(release)
}

// TestLateResponseAfterTimeoutIsDiscarded drives the abandonment path:
// the server answers the timed-out call after its timer fired; the reader
// must discard the orphaned response rather than mis-deliver it.
func TestLateResponseAfterTimeoutIsDiscarded(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	release := make(chan struct{})
	selectiveServer(t, serverConn, "hang", release)

	c := NewClient(clientConn, WithTimeout(100*time.Millisecond))
	defer c.Close()

	if _, err := c.Resolve(core.Path{"hang"}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want timeout", err)
	}
	// Deliver the late answer; the reader is still draining the stream and
	// must drop it on the floor (its call is gone from the pending table).
	close(release)
	time.Sleep(50 * time.Millisecond)
	// The client stays poisoned — the late response must not “heal” it.
	if _, err := c.Resolve(core.Path{"ok"}); err == nil {
		t.Fatal("poisoned client accepted a call after a late response")
	}
}

// TestMuxStress hammers one multiplexed caching client from 32 goroutines
// with mixed Resolve / ResolveBatch / Stats while the server's export is
// concurrently rebound (with Bump): every answer is one of the name's two
// bindings, and once the rebinding stops the wire answers with the final
// binding at the final revision. Run under -race this also proves the
// pending-table, writer, and cache locking sound.
func TestMuxStress(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "export")
	if _, err := tr.Create(core.ParsePath("usr/bin/ls"), "#!ls"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"etc/motd", "srv/www/idx", "home/ada/notes", "var/log"} {
		if _, err := tr.Create(core.ParsePath(p), p); err != nil {
			t.Fatal(err)
		}
	}
	binDir, err := tr.Lookup(core.ParsePath("usr/bin"))
	if err != nil {
		t.Fatal(err)
	}
	binCtx, _ := w.ContextOf(binDir)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithCache(64))

	paths := []core.Path{
		core.ParsePath("usr/bin/ls"),
		core.ParsePath("etc/motd"),
		core.ParsePath("srv/www/idx"),
		core.ParsePath("home/ada/notes"),
	}
	stop := make(chan struct{})
	var wg, rebinder sync.WaitGroup

	// The rebinder: flip usr/bin/ls between two entities, bumping the
	// revision each time, so in-flight responses keep crossing revisions.
	alt := w.NewObject("alt-ls")
	orig, err := w.Resolve(tr.RootContext(), core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	rebinder.Add(1)
	go func() {
		defer rebinder.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				binCtx.Bind("ls", alt)
			} else {
				binCtx.Bind("ls", orig)
			}
			s.Bump()
			time.Sleep(time.Millisecond)
		}
	}()

	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (g + i) % 3 {
				case 0:
					e, err := c.Resolve(paths[i%len(paths)])
					if err != nil {
						t.Errorf("Resolve: %v", err)
						return
					}
					if p := paths[i%len(paths)]; p.String() == "usr/bin/ls" {
						if e != alt && e != orig {
							t.Errorf("usr/bin/ls resolved to %v, not one of its two bindings", e)
							return
						}
					}
				case 1:
					out, err := c.ResolveBatch(paths)
					if err != nil {
						t.Errorf("ResolveBatch: %v", err)
						return
					}
					for k, r := range out {
						if r.Err != nil {
							t.Errorf("batch slot %d: %v", k, r.Err)
							return
						}
					}
				default:
					c.Metrics()
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	rebinder.Wait()

	// Settle on a final binding: the next answer off the wire is that
	// binding at the final revision — what a revision-tracked cache above
	// this client purges by. (This client's own cache is never invalidated
	// and may keep either binding.)
	binCtx.Bind("ls", alt)
	s.Bump()
	e, _, rev, err := c.ResolveRev(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if e != alt || rev != s.Revision() {
		t.Fatalf("after settling: %v at revision %d, want the final binding %v at %d", e, rev, alt, s.Revision())
	}
	if m := c.Metrics(); m.Hits+m.Misses == 0 {
		t.Fatal("stress run recorded no cache traffic at all")
	}
}

// TestSubscribedCallTimesOutByItsTimer: a subscription's standing reader
// holds the read token and arms no deadline, so a hung call on a subscribed
// client can only be ended by its own timer — the one path to expire that
// does not race a leader's read deadline.
func TestSubscribedCallTimesOutByItsTimer(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.Wrap(inner)
	go s.Serve(ln)
	defer s.Close()

	c, err := Dial("tcp", ln.Addr().String(), WithTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(nil); err != nil {
		t.Fatal(err)
	}
	for len(c.rtoken) == 0 { // until the standing reader has the token
		runtime.Gosched()
	}
	ln.SetMode(faultnet.Hang)
	if _, err := c.Resolve(core.ParsePath("usr/bin/ls")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("hung call on a subscribed client: err = %v, want os.ErrDeadlineExceeded", err)
	}
	if err := c.Err(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("client after the timeout: Err = %v, want it poisoned by the timeout", err)
	}
}

// TestPipelinedCallsOverlap proves the multiplexing actually pipelines: a
// burst of concurrent resolves over one connection must drive the
// server's per-connection worker pool to overlap resolutions, completing
// far faster than the serial sum of its round-trips would. Rather than
// racing wall clocks, it checks overlap structurally — a server-side gate
// holds every worker until the full burst is simultaneously in flight,
// which can only happen if client and server both multiplex.
func TestPipelinedCallsOverlap(t *testing.T) {
	const burst = 8
	w := core.NewWorld()
	tr := dirtree.New(w, "export")
	if _, err := tr.Create(core.ParsePath("etc/motd"), "hi"); err != nil {
		t.Fatal(err)
	}

	var gate sync.WaitGroup
	gate.Add(burst)
	s := serverWithWorkers(w, &gatingContext{Context: tr.RootContext(), gate: &gate}, burst)
	c := pipeClient(t, s)

	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Resolve(core.ParsePath("etc/motd"))
			errs <- err
		}()
	}
	// gate.Wait inside each lookup releases only once all burst lookups
	// are in flight together; if any call waited for another's response,
	// this would deadlock (and the test would time out).
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// gatingContext blocks each request's first-component lookup until
// gate's count reaches zero, proving that the expected number of
// resolutions run concurrently. Only "etc" is gated — each request looks
// it up exactly once, so the gate counts requests, not path components.
type gatingContext struct {
	core.Context
	gate *sync.WaitGroup
}

func (g *gatingContext) Lookup(n core.Name) core.Entity {
	if n == "etc" {
		g.gate.Done()
		g.gate.Wait()
	}
	return g.Context.Lookup(n)
}

// TestFaultnetHangTimesOutEachCallAndPoisons drives the per-call timeout
// through a real TCP connection that faultnet hangs mid-stream: every
// call in flight when the hang begins fails at its own timer, the client
// is poisoned (new calls fail fast rather than re-waiting the timeout),
// and after the fault heals a fresh connection works while the poisoned
// one stays dead — exactly the contract cluster failover is built on.
func TestFaultnetHangTimesOutEachCallAndPoisons(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.Wrap(inner)
	go s.Serve(ln)
	defer s.Close()

	const timeout = 300 * time.Millisecond
	c, err := Dial("tcp", ln.Addr().String(), WithTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := core.ParsePath("usr/bin/ls")
	if _, err := c.Resolve(p); err != nil {
		t.Fatalf("healthy resolve: %v", err)
	}

	ln.SetMode(faultnet.Hang)
	start := time.Now()
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := c.Resolve(p)
			errs <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("hung call %d: err = %v, want os.ErrDeadlineExceeded", i, err)
		}
	}
	if d := time.Since(start); d > 4*timeout {
		t.Fatalf("4 concurrent hung calls took %v; per-call timers should expire in parallel, not in series", d)
	}

	// Poisoned: the next call fails immediately, not after another timeout.
	start = time.Now()
	if _, err := c.Resolve(p); err == nil {
		t.Fatal("call on the poisoned client should fail")
	}
	if d := time.Since(start); d > timeout/2 {
		t.Fatalf("poisoned-client call took %v, want fail-fast", d)
	}

	// Heal the network: the poisoned client stays dead, a fresh one works.
	ln.SetMode(faultnet.Pass)
	if _, err := c.Resolve(p); err == nil {
		t.Fatal("poisoned client must not heal with the network")
	}
	c2, err := Dial("tcp", ln.Addr().String(), WithTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Resolve(p); err != nil {
		t.Fatalf("fresh client after heal: %v", err)
	}
}
