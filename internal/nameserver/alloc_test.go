//go:build !race

// Allocation floors for the wire's steady paths: resolution cost must not
// grow with load (DESIGN §3a), so a request that finds its buffers warm
// touches the allocator on neither end. testing.AllocsPerRun counts every
// goroutine's mallocs, so a floor over a live connection holds the server,
// the client's persistent goroutines and the caller to the count together.
// Each steady branch of the four wire loops runs under at least one floor:
//
//   - Client.send: the check, the encode and the serial flush
//     (TestRoundTripAllocFloor; a batch's encode, TestBatchRoundTripAllocFloor);
//     the pipelined caller's yield, retake and shared flush
//     (TestPipelinedCallsAllocFloor).
//   - Client.lead: the loop that reads until its own call is done
//     (TestRoundTripAllocFloor); arming the read deadline under WithTimeout
//     (TestTimedRoundTripAllocFloor); delivering a whole burst to other
//     callers (TestPipelinedCallsAllocFloor); the standing reader of a
//     subscribed client (TestPushedFrameAllocFloor).
//   - Client.readOne: a response parsed into its live call
//     (TestRoundTripAllocFloor, and a batch's results in one array sized
//     by the frame's count, TestBatchRoundTripAllocFloor); a push frame
//     parsed into the scratch and handed to the subscriber
//     (TestPushedFrameAllocFloor).
//   - Server.serveRequests: decode, resolve and respond for one name
//     (TestRoundTripAllocFloor; handle alone, TestServerResolveAllocFree)
//     and for a batch (TestBatchRoundTripAllocFloor); respond behind
//     pending frames (TestRespondDrainsFramesAllocFree) and under a
//     pipelined burst (TestPipelinedCallsAllocFloor); the push goroutine
//     it starts (TestPushedFrameAllocFloor).
//
// Off the steady path, and so under no floor: a refused or failed call (it
// formats its error), a subscription's first request, a routing fetch,
// mutations (handleMutation), and a client's death (fail).
//
// Excluded under -race: the race runtime adds its own allocations and
// would skew every floor.
package nameserver

import (
	"bufio"
	"io"
	"sync"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// allocFloor asserts that f averages at most want allocations per run.
// Floors are ceilings, not equalities: a future change that shaves another
// allocation should not fail the suite.
func allocFloor(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, f); got > want {
		t.Errorf("%s: %.1f allocs/op, want ≤ %.0f — an allocation crept onto a steady wire path", name, got, want)
	}
}

// TestServerResolveAllocFree pins the server's whole resolve path —
// handle → resolveOne → CheckWireCanonical → World.Resolve — at zero
// allocations once the worker's scratch has warmed up. This is the
// decode→resolve→encode worker loop minus decode and encode.
func TestServerResolveAllocFree(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())

	sc := &workerScratch{req: request{Path: core.Path{"usr", "bin", "ls"}}}
	allocFloor(t, "handle/resolve", 0, func() {
		if resp := s.handle(sc); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	})

	sc = &workerScratch{req: request{Paths: []core.Path{
		{"usr", "bin", "ls"},
		{"usr", "bin"},
		{"usr"},
	}}}
	allocFloor(t, "handle/resolve-batch", 0, func() {
		if resp := s.handle(sc); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	})
}

// TestCachedResolveAllocFloor pins the client's cache-hit path at zero
// allocations. Nothing crosses the wire on a hit, so send/lead stay idle;
// the key is rendered into the client's reused buffer (AppendWireKey) and
// the probe converts it on the stack, which the compiler does for keys of
// up to 32 bytes.
func TestCachedResolveAllocFloor(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithCache(8))

	p := core.ParsePath("usr/bin/ls")
	if got, err := c.Resolve(p); err != nil || got != f {
		t.Fatalf("prime Resolve = %v, %v", got, err)
	}
	allocFloor(t, "Resolve/cache-hit", 0, func() {
		if _, err := c.Resolve(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRoundTripAllocFloor pins the full uncached round-trip — call
// bookkeeping, the send check, send, the server worker pool, lead — at
// zero allocations. The request carries the caller's path as it is and the
// server decodes into its worker's path scratch, so no copy of the name is
// made on either end; the call record and its done channel are reused
// (callPool), and encode and decode allocate nothing (EXPERIMENTS.md
// records the trajectory).
func TestRoundTripAllocFloor(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	p := core.ParsePath("usr/bin/ls")
	if got, err := c.Resolve(p); err != nil || got != f {
		t.Fatalf("prime Resolve = %v, %v", got, err)
	}
	allocFloor(t, "Resolve/round-trip", 0, func() {
		if _, err := c.Resolve(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchRoundTripAllocFloor pins a three-path ResolveBatchRev over the
// pipe at its measured two allocations, both on the client and both owed
// to the caller: the results array the answer hands over (parseResponse
// sizes it once by the frame's count) and the BatchResult slice returned.
// The server's batch decode, resolve and encode reuse the worker's scratch.
func TestBatchRoundTripAllocFloor(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	batch := []core.Path{core.ParsePath("usr/bin/ls"), core.ParsePath("usr/bin"), core.ParsePath("usr")}
	if _, _, err := c.ResolveBatchRev(batch); err != nil {
		t.Fatal(err)
	}
	allocFloor(t, "ResolveBatchRev/three-paths", 2, func() {
		if _, _, err := c.ResolveBatchRev(batch); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTimedRoundTripAllocFloor: under WithTimeout the leader arms the
// connection's read deadline with its call's expiry (see lead). Over TCP
// that re-arms the poller's timer in place, so a timed round trip is as
// free as an untimed one. (net.Pipe's deadline makes a timer per arm,
// which is why this floor runs over loopback.)
func TestTimedRoundTripAllocFloor(t *testing.T) {
	w, tr, paths := flushTree(t)
	c, _, _ := countedTCP(t, NewServer(w, tr.RootContext()), WithTimeout(time.Minute))
	if _, err := c.Resolve(paths[0]); err != nil {
		t.Fatal(err)
	}
	allocFloor(t, "Resolve/timed-round-trip", 0, func() {
		if _, err := c.Resolve(paths[0]); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPipelinedCallsAllocFloor: eight callers share one client, so every
// call is pipelined and takes send's yield path (yield, the last one back
// retakes the token and flushes for the rest), a leader delivers frames to
// callers other than its own, and several server workers answer at once.
// The callers are persistent goroutines, each making one call per run, so
// the count is the calls' alone: zero. Fewer request writes than calls
// shows the yield path ran.
func TestPipelinedCallsAllocFloor(t *testing.T) {
	w, tr, f := exportedTree(t)
	c, client, _ := countedTCP(t, NewServer(w, tr.RootContext()))

	const callers = 8
	p := core.ParsePath("usr/bin/ls")
	start := make(chan struct{})
	answers := make(chan core.Entity, callers)
	var wg sync.WaitGroup
	defer func() {
		close(start)
		wg.Wait()
	}()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range start {
				e, err := c.Resolve(p)
				if err != nil {
					t.Error(err)
				}
				answers <- e
			}
		}()
	}
	round := func() {
		for i := 0; i < callers; i++ {
			start <- struct{}{}
		}
		for i := 0; i < callers; i++ {
			if e := <-answers; e != f {
				t.Fatalf("pipelined Resolve = %v, want %v", e, f)
			}
		}
	}
	round()
	before := client.Writes.Load()
	allocFloor(t, "Resolve/eight-pipelined-callers", 0, round)
	// AllocsPerRun makes one warm-up run before the 200 it counts.
	if calls, got := int64(201*callers), client.Writes.Load()-before; got >= calls {
		t.Errorf("%d request writes for %d pipelined calls: no caller's frame rode another's flush", got, calls)
	}
}

// TestPushedFrameAllocFloor: a Bump appends to the commit log, the
// connection's push goroutine encodes the frame and flushes it, and the
// subscribed client's standing reader parses it into its scratch and
// hands it to the callback. The whole trip is free once the log's tail
// array has grown: AllocsPerRun averages its rare re-growth to zero.
func TestPushedFrameAllocFloor(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	pushed := make(chan uint64, 1)
	if err := c.Subscribe(func(rev uint64) { pushed <- rev }); err != nil {
		t.Fatal(err)
	}
	bump := func() {
		s.Bump()
		if rev := <-pushed; rev != s.Revision() {
			t.Fatalf("pushed frame at revision %d, server at %d", rev, s.Revision())
		}
	}
	bump()
	allocFloor(t, "Bump/pushed-frame", 0, bump)
}

// TestBinaryEncodeDecodeAllocFree pins the codec itself — append into a
// warm buffer, parse into warm scratch — at zero allocations for both
// message types on the steady path.
func TestBinaryEncodeDecodeAllocFree(t *testing.T) {
	req := populated()["request"].(request)
	resp := populated()["response"].(response)
	resp.Routes = nil // RouteInfo is the documented bootstrap-only exception

	var buf []byte
	var sc workerScratch
	var out request
	allocFloor(t, "appendRequest+parseRequest", 0, func() {
		buf = appendRequest(buf[:0], &req)
		if err := parseRequest(buf, &out, &sc); err != nil {
			t.Fatal(err)
		}
	})

	var errs strIntern
	var outResp response
	allocFloor(t, "appendResponse+parseResponse", 0, func() {
		buf = appendResponse(buf[:0], &resp)
		if err := parseResponse(buf, &outResp, &errs); err != nil {
			t.Fatal(err)
		}
	})
}

// TestErrInternAllocFree pins the sentinel-error decode at zero
// allocations once interned: a client hammering a missing name pays for
// the "no such name" string once, not per response.
func TestErrInternAllocFree(t *testing.T) {
	body := appendResponse(nil, &response{ID: 3, Err: "nameserver: no such name"})
	var errs strIntern
	var resp response
	allocFloor(t, "parseResponse/interned-err", 0, func() {
		if err := parseResponse(body, &resp, &errs); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRespondDrainsFramesAllocFree: a steady stream of frames, each naming
// its binding, drained by the responder ahead of its own answer — the
// entries are read out of the log one at a time, the frame is encoded from
// the connection's scratch, and nothing reaches the heap. The log is warmed
// to its unpinned bound first: from there an append re-grows the tail's
// array once in several hundred commits, on the write path, and
// AllocsPerRun averages that to zero.
func TestRespondDrainsFramesAllocFree(t *testing.T) {
	st := &connState{
		bw:         bufio.NewWriter(io.Discard),
		wtoken:     make(chan struct{}, 1),
		subscribed: true,
	}
	s := &Server{}
	for i := 0; i < 2*maxPendingInvalidations; i++ {
		s.log.append(commit{})
	}
	st.pos = s.log.head.Load()
	resp := response{ID: 9, Ent: 4, Kind: 2, Rev: 1, Dir: 3}
	rev := uint64(0)
	allocFloor(t, "respond behind four pending frames", 0, func() {
		for i := 0; i < 4; i++ {
			rev++
			s.log.append(commit{rev: rev, dir: 3, name: "victim"})
		}
		resp.Rev = rev
		s.respond(st, &resp, false)
		if s.owed(st) {
			t.Fatal("respond left frames pending")
		}
	})
}
