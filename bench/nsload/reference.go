package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark is sized for is a shared VM whose speed drifts:
// the same binary, pinned, ran serial-uniform at 28 000 and at 44 000
// names/s within a quarter of an hour, and windows of one run differ
// threefold. Two things drift, not in step: the cost of a syscall and a
// context switch (a bare 32-byte echo between two processes takes 9µs or
// 13µs from one second to the next) and the cost of reaching memory (a
// dependent load from a 32MB ring takes 250 to 500ns, seconds of 8 000ns on
// record) — while a pure arithmetic loop barely moves. A name server's round
// trip is made of the first, its caches and tree walks of the second. So the
// run is cut into slices: 85ms of workload, then a 15ms probe, every worker
// parked meanwhile — 10ms of that echo against a child (bench/echo) that
// runs none of this repository's code, 5ms of chasing that ring. A slice's
// slowdown is (echo round trip / 10µs) × √(ns per hop / 300ns); every latency
// sampled in the slice is divided by it, every count of names multiplied.
// Metrics are computed from the scaled samples; the raw ones are in the
// result file beside them. The square root is empirical: over 60 runs it
// left the least run-to-run spread (README, "Sizing").
const (
	refEcho     = 10 * time.Microsecond
	refHop      = 300.0 // ns
	sliceActive = 85 * time.Millisecond
	sliceEcho   = 10 * time.Millisecond
	sliceChase  = 5 * time.Millisecond
	// perWindow slices make one window, the grain of the per-window medians.
	perWindow  = int(window / (sliceActive + sliceEcho + sliceChase))
	refMessage = 32

	chaseLines  = 1 << 19 // × 64 bytes = 32MB, eight times the sizing host's L2
	chaseStride = 16      // uint32s per cache line
)

// reference is the echo child, the connection to it, and the ring.
type reference struct {
	proc *child
	conn net.Conn
	buf  []byte
	ring []uint32 // ring[i*chaseStride] is the index of the line after line i
	at   uint32
}

// newRing links chaseLines cache lines into one random cycle (Sattolo's
// shuffle), so that every hop is a dependent load no prefetcher can guess.
func newRing() []uint32 {
	order := make([]uint32, chaseLines)
	for i := range order {
		order[i] = uint32(i)
	}
	r := rngFor(0, 0) // the ring is the same whatever the run's seed
	for i := len(order) - 1; i > 0; i-- {
		j := r.IntN(i)
		order[i], order[j] = order[j], order[i]
	}
	ring := make([]uint32, chaseLines*chaseStride)
	for i, line := range order {
		ring[line*chaseStride] = order[(i+1)%len(order)]
	}
	return ring
}

func (e *env) startReference() (*reference, error) {
	bin, err := goBuild(e.root+"/bench", e.out, "./echo")
	if err != nil {
		return nil, err
	}
	r := &reference{buf: make([]byte, refMessage), ring: newRing()}
	if r.proc, err = startChild(bin); err != nil {
		return nil, err
	}
	if r.conn, err = net.DialTimeout("tcp", r.proc.addr, startTimeout); err != nil {
		r.proc.kill()
		return nil, err
	}
	return r, nil
}

func (r *reference) stop() {
	r.conn.Close()
	r.proc.kill()
}

// speed is one probe of the host.
type speed struct {
	echo time.Duration // median round trip
	hop  float64       // ns per dependent load
}

// slowdown is how much slower than the reference speed the host ran.
func (s speed) slowdown() float64 {
	return s.echoSlowdown() * math.Sqrt(s.hop/refHop)
}

// echoSlowdown is the echo's part of it alone. It scales the one-shot
// timings, set-up and recovery: what a hop costs depends on what ran just
// before the probe, which on a slice is always the workload and around a
// process start is nothing in particular.
func (s speed) echoSlowdown() float64 { return float64(s.echo) / float64(refEcho) }

// probe measures the host's speed now: scale × (10ms of echo, 5ms of chase).
func (r *reference) probe(scale int) (speed, error) {
	echo, err := r.burst(time.Duration(scale) * sliceEcho)
	return speed{echo, r.chase(time.Duration(scale) * sliceChase)}, err
}

// burst echoes for d and returns the median round trip.
func (r *reference) burst(d time.Duration) (time.Duration, error) {
	_ = r.conn.SetDeadline(time.Now().Add(d + startTimeout))
	var rtt []int64
	t0 := time.Now()
	for end := t0.Add(d); t0.Before(end); {
		if _, err := r.conn.Write(r.buf); err != nil {
			return 0, fmt.Errorf("reference echo: %w", err)
		}
		if _, err := io.ReadFull(r.conn, r.buf); err != nil {
			return 0, fmt.Errorf("reference echo: %w", err)
		}
		t1 := time.Now()
		rtt = append(rtt, int64(t1.Sub(t0)))
		t0 = t1
	}
	slices.Sort(rtt)
	return time.Duration(percentile(rtt, 0.5)), nil
}

// chase follows the ring for d and returns the ns one hop took.
func (r *reference) chase(d time.Duration) float64 {
	hops, at := 0, r.at
	t0 := time.Now()
	for time.Since(t0) < d {
		for k := 0; k < 256; k++ {
			at = r.ring[at*chaseStride]
		}
		hops += 256
	}
	r.at = at
	return float64(time.Since(t0)) / float64(hops)
}

// gate parks the workers (callers and the writer) between slices, so the
// reference burst has the CPU to itself, and tells them which slice they
// are in.
type gate struct {
	shut   atomic.Bool  // fast path: workers look here between ops
	slice  atomic.Int32 // index of the open slice
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	over   bool
	parked int
	opened time.Time // when the current slice began
}

func newGate() *gate {
	g := &gate{closed: true}
	g.shut.Store(true)
	g.cond = sync.NewCond(&g.mu)
	return g
}

// pass parks the calling worker while the gate is closed and reports
// whether the run goes on.
func (g *gate) pass() bool {
	if !g.shut.Load() {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.parked++
	g.cond.Broadcast()
	for g.closed && !g.over {
		g.cond.Wait()
	}
	g.parked--
	return !g.over
}

func (g *gate) sliceStart() time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.opened
}

// open starts slice i.
func (g *gate) open(i int) {
	g.mu.Lock()
	g.slice.Store(int32(i))
	g.opened = time.Now()
	g.closed = false
	g.shut.Store(false)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// close ends the slice and returns once all n workers have finished the op
// they were in and parked.
func (g *gate) close(n int) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	g.shut.Store(true)
	for g.parked < n {
		g.cond.Wait()
	}
	return time.Since(g.opened)
}

// end releases every worker for good.
func (g *gate) end() {
	g.mu.Lock()
	g.over = true
	g.shut.Store(true)
	g.cond.Broadcast()
	g.mu.Unlock()
}
