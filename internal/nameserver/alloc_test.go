//go:build !race

// Allocation-floor regression tests for the //namingvet:allocfree wire
// roots. allocfree proves the annotated paths reach no allocating code
// outside their exempted cold calls; these tests pin the measured floors at
// runtime, so a change that reintroduces a per-request allocation fails
// go test even if nobody reads a benchmark. Excluded under -race: the race
// runtime adds its own allocations and would skew every floor.
package nameserver

import (
	"bufio"
	"io"
	"testing"

	"namecoherence/internal/core"
)

// allocFloor asserts that f averages at most want allocations per run.
// Floors are ceilings, not equalities: a future change that shaves another
// allocation should not fail the suite.
func allocFloor(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, f); got > want {
		t.Errorf("%s: %.1f allocs/op, want ≤ %.0f — an allocation crept onto an allocfree wire path", name, got, want)
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

// TestBinaryEncodeDecodeAllocFree pins the codec itself — append into a
// warm buffer, parse into warm scratch — at zero allocations for both
// message types on the steady path. This is the tentpole's core claim;
// allocfree proves it statically, this holds it at runtime.
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
