package nameserver

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/faultnet"
)

// The flush rule (DESIGN §5a) as counts and as events. Buffered bytes are
// flushed by whoever is about to stop using the CPU, never per frame: the
// floors below hold the rule to writes per operation the way
// testing.AllocsPerRun holds the hot path to allocations, and the tests
// after them check that coalescing never strands a byte or delays a push.

// flushTree exports dir/f00..f15.
func flushTree(t *testing.T) (*core.World, *dirtree.Tree, []core.Path) {
	t.Helper()
	w := core.NewWorld()
	tr := dirtree.New(w, "export")
	paths := make([]core.Path, 16)
	for i := range paths {
		paths[i] = core.ParsePath(fmt.Sprintf("dir/f%02d", i))
		if _, err := tr.Create(paths[i], "x"); err != nil {
			t.Fatal(err)
		}
	}
	return w, tr, paths
}

// countedTCP serves s on loopback and dials it, counting the reads and
// writes on each side of the one connection.
func countedTCP(t *testing.T, s *Server, opts ...ClientOption) (c *Client, client, server *faultnet.Counts) {
	t.Helper()
	client, server = new(faultnet.Counts), new(faultnet.Counts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(faultnet.CountListener(ln, server))
	t.Cleanup(s.Close)
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c = NewClient(faultnet.CountConn(conn, client), opts...)
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return c, client, server
}

// timeoutModes runs f with and without a per-call timeout: the write path
// is the same code in both, and the floors say so.
func timeoutModes(t *testing.T, f func(t *testing.T, opts ...ClientOption)) {
	t.Run("no-timeout", func(t *testing.T) { f(t) })
	t.Run("timeout", func(t *testing.T) { f(t, WithTimeout(30*time.Second)) })
}

// TestSerialCallIsOneWriteOneRead: with nothing else in flight a call is
// exactly one write and one read on each side — coalescing must cost the
// serial protocol nothing.
func TestSerialCallIsOneWriteOneRead(t *testing.T) {
	timeoutModes(t, func(t *testing.T, opts ...ClientOption) {
		w, tr, paths := flushTree(t)
		c, client, server := countedTCP(t, NewServer(w, tr.RootContext()), opts...)
		resolve := func(i int) {
			if _, err := c.Resolve(paths[i%len(paths)]); err != nil {
				t.Fatal(err)
			}
		}
		resolve(0) // past the handshake; the server is parked in its next read
		const ops = 200
		cw, cr := client.Writes.Load(), client.Reads.Load()
		sw, sr := server.Writes.Load(), server.Reads.Load()
		for i := 0; i < ops; i++ {
			resolve(i)
		}
		for _, row := range []struct {
			name string
			got  int64
		}{
			{"client writes", client.Writes.Load() - cw},
			{"client reads", client.Reads.Load() - cr},
			{"server writes", server.Writes.Load() - sw},
			{"server reads", server.Reads.Load() - sr},
		} {
			if row.got != ops {
				t.Errorf("%s = %d over %d serial calls, want exactly %d", row.name, row.got, ops, ops)
			}
		}
	})
}

// rawConn is a hand-driven peer: the tests that need to say exactly which
// bytes share a write, read the server's frames one at a time, or play a
// server that misbehaves on purpose, speak the wire format themselves.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
	errs strIntern
}

// serverWithWorkers is NewServer with the per-connection resolver pool
// fixed at n; the default, GOMAXPROCS, varies by host.
func serverWithWorkers(w *core.World, export core.Context, n int) *Server {
	s := NewServer(w, export)
	s.workers = n
	return s
}

// rawPipe serves one end of a pipe (counting the server's side of it) and
// shakes hands on the other (see rawOver).
func rawPipe(t *testing.T, s *Server) (*rawConn, *faultnet.Counts) {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	counts := new(faultnet.Counts)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ServeConn(faultnet.CountConn(serverEnd, counts))
	}()
	t.Cleanup(func() {
		_ = clientEnd.Close()
		wg.Wait()
	})
	return rawOver(t, clientEnd), counts
}

// rawOver runs the client's half of the version handshake on conn and
// hands back a hand-driven peer. Reads and writes on it carry a deadline,
// so a frame that never comes fails the test instead of hanging.
func rawOver(t *testing.T, conn net.Conn) *rawConn {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	r := &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
	if _, err := conn.Write([]byte{binaryMagic}); err != nil {
		t.Fatal(err)
	}
	if b, err := r.br.ReadByte(); err != nil || b != binaryMagic {
		t.Fatalf("server version = %#x, %v", b, err)
	}
	return r
}

// fakeServer runs the server's half of the handshake on conn, answering
// with version, and hands back the peer to play a server with: recvReq and
// sendResp report failure instead of failing the test, because fake servers
// run off the test's goroutine and end when the client hangs up.
func fakeServer(conn net.Conn, version byte) (*rawConn, bool) {
	r := &rawConn{conn: conn, br: bufio.NewReader(conn)}
	if _, err := r.br.ReadByte(); err != nil {
		return nil, false
	}
	_, err := conn.Write([]byte{version})
	return r, err == nil
}

// recvReq reads the next request; its slices are the caller's to keep.
func (r *rawConn) recvReq() (req request, ok bool) {
	body, err := readFrame(r.br, &r.buf)
	if err != nil {
		return req, false
	}
	return req, parseRequest(body, &req, new(workerScratch)) == nil
}

// sendResp writes one response frame.
func (r *rawConn) sendResp(resp response) bool {
	body := appendResponse(nil, &resp)
	_, err := r.conn.Write(append(appendUvarint(nil, uint64(len(body))), body...))
	return err == nil
}

// framed is the requests' frames, back to back.
func framed(reqs ...request) []byte {
	var out, body []byte
	for i := range reqs {
		body = appendRequest(body[:0], &reqs[i])
		out = appendUvarint(out, uint64(len(body)))
		out = append(out, body...)
	}
	return out
}

// send writes the requests as one Write.
func (r *rawConn) send(reqs ...request) {
	r.t.Helper()
	if _, err := r.conn.Write(framed(reqs...)); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads the next frame.
func (r *rawConn) recv() response {
	r.t.Helper()
	body, err := readFrame(r.br, &r.buf)
	if err != nil {
		r.t.Fatalf("waiting for a frame: %v", err)
	}
	var resp response
	if err := parseResponse(body, &resp, &r.errs); err != nil {
		r.t.Fatal(err)
	}
	return resp
}

func resolveReq(id uint64, p core.Path) request {
	raw, _ := CanonicalWirePath(p)
	return request{ID: id, Path: raw}
}

// TestServerAnswersBurstInOneWrite: 64 requests that arrive in one read
// leave as 64 responses in one write — the single worker only reaches a
// flush point when its read buffer runs dry.
func TestServerAnswersBurstInOneWrite(t *testing.T) {
	w, tr, paths := flushTree(t)
	r, server := rawPipe(t, serverWithWorkers(w, tr.RootContext(), 1))
	const burst = 64
	reqs := make([]request, burst)
	for i := range reqs {
		reqs[i] = resolveReq(uint64(i+1), paths[i%len(paths)])
	}
	before := server.Writes.Load()
	r.send(reqs...)
	for i := 0; i < burst; i++ {
		if resp := r.recv(); resp.ID != uint64(i+1) || resp.Err != "" {
			t.Fatalf("response %d = %+v", i, resp)
		}
	}
	if got := server.Writes.Load() - before; got != 1 {
		t.Fatalf("server answered a %d-frame burst in %d writes, want exactly 1", burst, got)
	}
}

// TestPipelinedCallersShareWrites: 64 callers on one Client and one
// processor. Every frame used to leave in a write of its own (1.00 on
// both sides); a woken burst now rides the first caller back from its
// yield, and the server's answers ride its next read.
func TestPipelinedCallersShareWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	timeoutModes(t, func(t *testing.T, opts ...ClientOption) {
		w, tr, paths := flushTree(t)
		c, client, server := countedTCP(t, NewServer(w, tr.RootContext()), opts...)
		const callers, each = 64, 100
		cw, sw := client.Writes.Load(), server.Writes.Load()
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := c.Resolve(paths[(g+i)%len(paths)]); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		const ops, ceiling = callers * each, 0.25
		if got := float64(client.Writes.Load()-cw) / ops; got > ceiling {
			t.Errorf("client writes/op = %.3f at depth %d, want <= %v", got, callers, ceiling)
		}
		if got := float64(server.Writes.Load()-sw) / ops; got > ceiling {
			t.Errorf("server writes/op = %.3f at depth %d, want <= %v", got, callers, ceiling)
		}
	})
}

// TestTwoCallersWriteAtOnce: with one other call in flight there is nobody
// a yield could gather — that call's owner is parked on the wire — so each
// request leaves in its own write before anything else can run. (Yielding
// here let unrelated goroutines' traffic overtake the request: it halved
// cluster-zipf's fresh_read_frac.)
func TestTwoCallersWriteAtOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, tr, paths := flushTree(t)
	c, client, _ := countedTCP(t, NewServer(w, tr.RootContext()))
	const callers, each = 2, 500
	before := client.Writes.Load()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.Resolve(paths[(g+i)%len(paths)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := client.Writes.Load() - before; got != callers*each {
		t.Fatalf("client writes = %d over %d calls from two callers, want exactly one each", got, callers*each)
	}
}

// TestReadsAnsweredWhileMutationWaits: a mutation queued behind the write
// lock must not take already-encoded answers into the wait with it. The
// test holds the lock (Server.Stable) and does not let go until every
// read pipelined around the blocked mutations has been answered.
func TestReadsAnsweredWhileMutationWaits(t *testing.T) {
	const workers = 4
	bind := func(id uint64, name string, target core.Entity) request {
		return request{ID: id, Op: OpBind, Path: []string{"dir"}, Name: name,
			Target: uint64(target.ID), TargetKind: uint8(target.Kind)}
	}
	for _, tc := range []struct {
		name          string
		reads, writes int
		readsFirst    bool
	}{
		// One worker blocks on the lock; the rest serve the reads behind it.
		{"reads-behind-one-mutation", 16, 1, false},
		// Every worker ends up blocked on the lock, each having answered a
		// read on the way: only the flush before the lock gets those out.
		{"every-worker-blocked", workers - 1, workers, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, tr, paths := flushTree(t)
			target, err := w.Resolve(tr.RootContext(), paths[0])
			if err != nil {
				t.Fatal(err)
			}
			s := serverWithWorkers(w, tr.RootContext(), workers)
			s.WatchExport(tr.Root)
			r, _ := rawPipe(t, s)

			var reads, writes []request
			id := uint64(0)
			for i := 0; i < tc.reads; i++ {
				id++
				reads = append(reads, resolveReq(id, paths[i%len(paths)]))
			}
			for i := 0; i < tc.writes; i++ {
				id++
				writes = append(writes, bind(id, fmt.Sprintf("new%d", i), target))
			}
			reqs := append(append([]request(nil), writes...), reads...)
			if tc.readsFirst {
				reqs = append(append([]request(nil), reads...), writes...)
			}

			answered := make(map[uint64]bool)
			s.Stable(func() {
				r.send(reqs...)
				for range reads {
					resp := r.recv() // fails the test if the answer is stranded
					if resp.Err != "" || resp.ID > uint64(tc.reads) {
						t.Fatalf("frame under the write lock = %+v, want a read's answer", resp)
					}
					answered[resp.ID] = true
				}
			})
			if len(answered) != tc.reads {
				t.Fatalf("%d distinct reads answered under the lock, want %d", len(answered), tc.reads)
			}
			for range writes {
				if resp := r.recv(); resp.Err != "" || resp.ID <= uint64(tc.reads) {
					t.Fatalf("frame after the lock = %+v, want a bind's answer", resp)
				}
			}
		})
	}
}

// holdContext parks the lookup of one first component until Release,
// announcing the first arrival: a resolution the test can stop mid-burst.
// Tests defer Release as well: a failed test must not leave a worker
// parked for the connection's cleanup to wait on.
type holdContext struct {
	core.Context
	name     core.Name
	entered  chan struct{} // capacity 1; later arrivals (the server retries a resolution the revision moved under) announce nothing
	released chan struct{}
	once     sync.Once
}

func (h *holdContext) Lookup(n core.Name) core.Entity {
	if n == h.name {
		select {
		case h.entered <- struct{}{}:
		default:
		}
		<-h.released
	}
	return h.Context.Lookup(n)
}

func (h *holdContext) Release() { h.once.Do(func() { close(h.released) }) }

// heldTree is flushTree plus held/x, whose resolution parks in hold.
func heldTree(t *testing.T) (w *core.World, hold *holdContext, paths []core.Path, held core.Path) {
	t.Helper()
	w, tr, paths := flushTree(t)
	held = core.ParsePath("held/x")
	if _, err := tr.Create(held, "x"); err != nil {
		t.Fatal(err)
	}
	hold = &holdContext{
		Context:  tr.RootContext(),
		name:     "held",
		entered:  make(chan struct{}, 1),
		released: make(chan struct{}),
	}
	return w, hold, paths, held
}

// TestPushIsNeverHeldBack: push invalidation's staleness bound is one
// frame's flight time, so an Invalidation frame leaves when the revision
// advances — whether the subscriber's connection is idle or its worker is
// halfway through a 64-deep burst with answers still buffered. In the
// stream, every answer resolved after the bump comes after the push.
func TestPushIsNeverHeldBack(t *testing.T) {
	subscribe := func(t *testing.T, r *rawConn) {
		t.Helper()
		r.send(request{ID: 1, Subscribe: true})
		if ack := r.recv(); ack.ID != 1 || ack.Invalidation {
			t.Fatalf("subscribe ack = %+v", ack)
		}
	}

	t.Run("idle", func(t *testing.T) {
		w, tr, _ := flushTree(t)
		s := serverWithWorkers(w, tr.RootContext(), 1)
		r, _ := rawPipe(t, s)
		subscribe(t, r)
		s.Bump()
		if push := r.recv(); !push.Invalidation || push.Rev != s.Revision() {
			t.Fatalf("frame after bump = %+v, want the push for revision %d", push, s.Revision())
		}
	})

	t.Run("mid-burst", func(t *testing.T) {
		w, hold, paths, held := heldTree(t)
		defer hold.Release()
		s := serverWithWorkers(w, hold, 1)
		r, _ := rawPipe(t, s)
		subscribe(t, r)

		const burst, stop = 64, 32 // request stop+1 of the burst parks in its lookup
		reqs := make([]request, burst)
		for i := range reqs {
			reqs[i] = resolveReq(uint64(i+2), paths[i%len(paths)])
		}
		reqs[stop] = resolveReq(uint64(stop+2), held)
		r.send(reqs...)
		<-hold.entered // the worker is mid-burst, `stop` answers encoded behind it

		before := s.Revision()
		s.Bump()
		// The push must arrive now, while the burst is still stalled — and
		// it brings the answers encoded ahead of it, all from before the bump.
		for i := 0; i < stop; i++ {
			if resp := r.recv(); resp.Invalidation || resp.Rev != before {
				t.Fatalf("frame %d ahead of the push = %+v, want an answer at revision %d", i, resp, before)
			}
		}
		if push := r.recv(); !push.Invalidation || push.Rev != before+1 {
			t.Fatalf("frame %d = %+v, want the push for revision %d", stop, push, before+1)
		}
		hold.Release()
		for i := stop; i < burst; i++ {
			if resp := r.recv(); resp.Invalidation || resp.Rev != before+1 {
				t.Fatalf("answer %d after the push = %+v, want revision %d", i, resp, before+1)
			}
		}
	})
}

// TestLateCallerNeedsNoHelp: a caller that arrives while the leader is
// parked in Read — its own request out, nothing to send — flushes its own
// frame and is answered, though no other caller will ever pass through
// the write path; and the server's second worker, alone, gets the answer
// out at its own next read.
func TestLateCallerNeedsNoHelp(t *testing.T) {
	timeoutModes(t, func(t *testing.T, opts ...ClientOption) {
		w, hold, paths, held := heldTree(t)
		defer hold.Release()
		c := pipeClient(t, serverWithWorkers(w, hold, 2), opts...)

		leader := make(chan error, 1)
		go func() {
			_, err := c.Resolve(held)
			leader <- err
		}()
		<-hold.entered // the leader's request is at the server: it sends nothing more

		late := make(chan error, 1)
		go func() {
			_, err := c.Resolve(paths[0])
			late <- err
		}()
		select {
		case err := <-late:
			if err != nil {
				t.Fatal(err)
			}
		case err := <-leader:
			t.Fatalf("the held call returned first: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("late caller was never answered")
		}
		hold.Release()
		if err := <-leader; err != nil {
			t.Fatal(err)
		}
	})
}

// TestCloseDuringYieldedSend: callers spend their time between encode and
// flush with the write token released; Close landing there must fail them
// all promptly and leave no goroutine behind on either side.
func TestCloseDuringYieldedSend(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the closer only ever runs inside a caller's yield or wait
	w, tr, paths := flushTree(t)
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
	const callers, warm = 32, 2000
	var done atomic.Int64
	warmed := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := c.Resolve(paths[(g+i)%len(paths)]); err != nil {
					return // closed under us, as intended
				}
				if done.Add(1) == warm {
					close(warmed)
				}
			}
		}(g)
	}
	<-warmed
	_ = c.Close()
	wg.Wait() // a caller stuck in its send would hang here
	s.Close()
	<-served

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after close:\n%s", buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
