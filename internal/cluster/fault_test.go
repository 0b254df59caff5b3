package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/faultnet"
	"namecoherence/internal/nameserver"
)

// startReplicated builds a replicated cluster over the test spec.
func startReplicated(t *testing.T, shards, replicas int) *Cluster {
	t.Helper()
	w := core.NewWorld()
	c, err := NewReplicated(w, testSpec, shards, replicas)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// fastOpts makes failures cheap for tests: short deadline, quick retries.
func fastOpts(extra ...ClientOption) []ClientOption {
	opts := []ClientOption{
		WithTimeout(500 * time.Millisecond),
		WithBackoff(time.Millisecond),
	}
	return append(opts, extra...)
}

func TestReplicatedClusterServesFromAllReplicas(t *testing.T) {
	cl := startReplicated(t, 2, 3)
	if cl.ReplicasPerShard() != 3 {
		t.Fatalf("ReplicasPerShard = %d, want 3", cl.ReplicasPerShard())
	}
	routes := cl.Routes()
	for shard := 0; shard < cl.Shards(); shard++ {
		if got := len(routes.ReplicaAddrs(shard)); got != 3 {
			t.Fatalf("shard %d: %d replica addrs, want 3", shard, got)
		}
	}
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, raw := range testPaths {
		p := core.ParsePath(raw)
		e, err := client.Resolve(p)
		if err != nil {
			t.Fatalf("Resolve(%s): %v", raw, err)
		}
		shard := routes.ShardFor(p)
		want, err := cl.Trees[shard].Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		// Any replica's entity is acceptable — they are one replica group.
		if e != want && !cl.World.SameReplica(e, want) {
			t.Fatalf("Resolve(%s) = %v, not a replica of %v", raw, e, want)
		}
	}
}

func TestFailoverSurvivesDeadReplica(t *testing.T) {
	cl := startReplicated(t, 2, 2)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Warm: pooled connections now point at the primaries.
	for _, raw := range testPaths {
		if _, err := client.Resolve(core.ParsePath(raw)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the primary replica of every shard.
	for shard := 0; shard < cl.Shards(); shard++ {
		cl.Fault(shard, 0).SetMode(faultnet.Reset)
	}
	// Every name must still resolve, via the surviving replicas.
	for _, raw := range testPaths {
		p := core.ParsePath(raw)
		e, err := client.Resolve(p)
		if err != nil {
			t.Fatalf("Resolve(%s) with primaries dead: %v", raw, err)
		}
		want, err := cl.Trees[cl.Routes().ShardFor(p)].Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if e != want && !cl.World.SameReplica(e, want) {
			t.Fatalf("Resolve(%s) = %v, not a replica of %v", raw, e, want)
		}
	}
	if client.Metrics().Failovers == 0 {
		t.Fatal("Failovers = 0 — the dead primaries were never noticed")
	}
}

func TestFailoverKeepsWeakCoherence(t *testing.T) {
	cl := startReplicated(t, 2, 2)
	const nClients = 4
	clients := make([]coherence.Resolver, nClients)
	for i := range clients {
		client, err := Dial("tcp", cl.Addrs()[i%len(cl.Addrs())], fastOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		clients[i] = client
	}
	// Half the clients warm against healthy primaries, then the primaries
	// die and the other half resolve against the secondaries.
	paths := make([]core.Path, len(testPaths))
	for i, raw := range testPaths {
		paths[i] = core.ParsePath(raw)
	}
	for _, p := range paths {
		if _, err := clients[0].Resolve(p); err != nil {
			t.Fatal(err)
		}
	}
	for shard := 0; shard < cl.Shards(); shard++ {
		cl.Fault(shard, 0).SetMode(faultnet.Reset)
	}
	rep := coherence.MeasureResolvers(cl.World, clients, paths)
	if rep.WeakDegree() != 1.0 {
		t.Fatalf("weak coherence degree = %v, want 1.0 (report %+v)", rep.WeakDegree(), rep)
	}
	if rep.Incoherent != 0 {
		t.Fatalf("%d names incoherent across replicas", rep.Incoherent)
	}
}

func TestResolveTimeoutBoundsHungShard(t *testing.T) {
	cl := startReplicated(t, 1, 1)
	client, err := Dial("tcp", cl.Addrs()[0],
		WithTimeout(100*time.Millisecond), WithRetries(1), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Resolve(core.ParsePath("etc/motd")); err != nil {
		t.Fatal(err)
	}

	cl.Fault(0, 0).SetMode(faultnet.Hang)
	start := time.Now()
	_, err = client.Resolve(core.ParsePath("usr/bin/ls"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Resolve against a hung shard succeeded")
	}
	// Two attempts at 100ms each plus dial and backoff: well under 2s,
	// and emphatically not forever.
	if elapsed > 2*time.Second {
		t.Fatalf("Resolve blocked %v — deadline not enforced", elapsed)
	}
	var netErr interface{ Timeout() bool }
	if !errors.As(err, &netErr) || !netErr.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
}

// TestDialTimeoutBoundsHungSeed: bootstrapping from a member that accepts
// and then says nothing costs the caller's timeout, not the 5s default.
func TestDialTimeoutBoundsHungSeed(t *testing.T) {
	cl := startReplicated(t, 1, 1)
	cl.Fault(0, 0).SetMode(faultnet.Hang)
	start := time.Now()
	client, err := Dial("tcp", cl.Addrs()[0], WithTimeout(100*time.Millisecond))
	elapsed := time.Since(start)
	if err == nil {
		client.Close()
		t.Fatal("Dial through a hung seed succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Dial blocked %v against a hung seed with a 100ms timeout", elapsed)
	}
}

func TestBreakerStopsDialingDeadReplica(t *testing.T) {
	cl := startReplicated(t, 1, 2)
	client, err := Dial("tcp", cl.Addrs()[0],
		fastOpts(WithRetries(1), WithBreaker(2, time.Hour))...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	dead := cl.Fault(0, 0)
	dead.SetMode(faultnet.Reset)
	p := core.ParsePath("etc/motd")
	// Enough resolutions to trip the 2-failure breaker on replica 0.
	for i := 0; i < 4; i++ {
		if _, err := client.Resolve(p); err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
	}
	drops := dead.Drops()
	if drops == 0 {
		t.Fatal("dead replica saw no connection attempts — test is vacuous")
	}
	for i := 0; i < 8; i++ {
		if _, err := client.Resolve(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := dead.Drops(); got != drops {
		t.Fatalf("dead replica dialed %d more times after breaker opened", got-drops)
	}
}

func TestResolveBatchPartialFailure(t *testing.T) {
	cl := startReplicated(t, 2, 1)
	client, err := Dial("tcp", cl.Addrs()[0],
		fastOpts(WithRetries(0))...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pUsr := core.ParsePath("usr/bin/ls")
	pEtc := core.ParsePath("etc/motd")
	usrShard := cl.Routes().ShardFor(pUsr)
	etcShard := cl.Routes().ShardFor(pEtc)
	if usrShard == etcShard {
		t.Fatalf("test spec routed usr and etc to the same shard %d", usrShard)
	}
	cl.Fault(etcShard, 0).SetMode(faultnet.Reset)

	results, err := client.ResolveBatch([]core.Path{pUsr, pEtc})
	if err != nil {
		t.Fatalf("ResolveBatch = %v, want nil error with per-item failures", err)
	}
	if results[0].Err != nil {
		t.Fatalf("healthy shard result discarded: %v", results[0].Err)
	}
	want, _ := cl.Trees[usrShard].Lookup(pUsr)
	if results[0].Entity != want {
		t.Fatalf("results[0] = %v, want %v", results[0].Entity, want)
	}
	if results[1].Err == nil {
		t.Fatal("dead shard's name resolved without error")
	}
	if isRemote(results[1].Err) {
		t.Fatalf("dead shard's error %v looks like a server answer, want transport", results[1].Err)
	}

	// With every touched shard dead and nothing cached, the batch as a
	// whole fails.
	cl.Fault(usrShard, 0).SetMode(faultnet.Reset)
	fresh, err := Dial("tcp", cl.Addrs()[etcShard], fastOpts(WithRetries(0))...)
	if err == nil {
		defer fresh.Close()
		results, err = fresh.ResolveBatch([]core.Path{pUsr, pEtc})
		if err == nil {
			t.Fatal("ResolveBatch with nothing resolvable returned nil error")
		}
		for i, r := range results {
			if r.Err == nil {
				t.Fatalf("results[%d] has no error despite total failure", i)
			}
		}
	}
}

func TestResolveBatchPartialFailureStillCaches(t *testing.T) {
	cl := startReplicated(t, 2, 1)
	client, err := Dial("tcp", cl.Addrs()[0],
		fastOpts(WithRetries(0), WithLRU(16))...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pUsr := core.ParsePath("usr/bin/ls")
	pEtc := core.ParsePath("etc/motd")
	etcShard := cl.Routes().ShardFor(pEtc)
	cl.Fault(etcShard, 0).SetMode(faultnet.Reset)
	if _, err := client.ResolveBatch([]core.Path{pUsr, pEtc}); err != nil {
		t.Fatal(err)
	}
	// The healthy answer was cached: a repeat is a hit, not a round-trip.
	served := cl.Metrics().Served
	if _, err := client.Resolve(pUsr); err != nil {
		t.Fatal(err)
	}
	if cl.Metrics().Served != served {
		t.Fatal("healthy-shard batch result was not cached under partial failure")
	}
}

func TestPoolGetFailsAfterClose(t *testing.T) {
	cl := startReplicated(t, 1, 1)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Resolve(core.ParsePath("etc/motd")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	// A resolve racing or following Close must fail, not dial a fresh
	// connection that nothing will ever close.
	if _, err := client.Resolve(core.ParsePath("etc/motd")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Resolve after Close = %v, want ErrClientClosed", err)
	}
	set := client.shards[0]
	if _, err := set.get(-1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("replicaSet.get after close = %v, want ErrClientClosed", err)
	}
}

// TestClosedClientRefusesCachedNames: closed means closed on both entry
// paths. A name the cache could answer is refused after Close by Resolve
// exactly as by ResolveBatch.
func TestClosedClientRefusesCachedNames(t *testing.T) {
	cl := startCluster(t, 1)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts(WithLRU(16))...)
	if err != nil {
		t.Fatal(err)
	}
	p := core.ParsePath("etc/motd")
	for range 2 {
		if _, err := client.Resolve(p); err != nil {
			t.Fatal(err)
		}
	}
	if hits := client.Metrics().Hits; hits != 1 {
		t.Fatalf("%d hits priming the cache, want 1", hits)
	}
	client.Close()
	if e, err := client.Resolve(p); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Resolve of a cached name after Close = %v, %v; want ErrClientClosed", e, err)
	}
	out, err := client.ResolveBatch([]core.Path{p})
	if !errors.Is(err, ErrClientClosed) || !errors.Is(out[0].Err, ErrClientClosed) {
		t.Fatalf("ResolveBatch of a cached name after Close = %v, %v; want ErrClientClosed", out, err)
	}
}

// TestNegativeRetriesAttemptOnce: a negative retry budget means no retry,
// not no attempt. Each lookup still makes its one round-trip, and only a
// real answer is cached.
func TestNegativeRetriesAttemptOnce(t *testing.T) {
	cl := startCluster(t, 1)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts(WithRetries(-1), WithLRU(16))...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	want := make([]core.Entity, len(testPaths))
	paths := make([]core.Path, len(testPaths))
	for i, raw := range testPaths {
		paths[i] = core.ParsePath(raw)
		if want[i], err = cl.Trees[0].Lookup(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Twice: the second pass is answered by the cache the first one filled.
	for range 2 {
		if e, err := client.Resolve(paths[0]); err != nil || e != want[0] {
			t.Fatalf("Resolve(%s) = %v, %v; want %v", testPaths[0], e, err, want[0])
		}
	}
	out, err := client.ResolveBatch(paths[1:])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.Err != nil || r.Entity != want[i+1] {
			t.Fatalf("ResolveBatch slot %s = %v, %v; want %v", testPaths[i+1], r.Entity, r.Err, want[i+1])
		}
	}
}

// TestBackoffDelayStaysInRange: the backoff doubles up to its cap and no
// further, so no attempt count overflows it and the jitter's argument is
// always positive, whatever the base.
func TestBackoffDelayStaysInRange(t *testing.T) {
	for _, base := range []time.Duration{time.Nanosecond, defaultBackoffBase, time.Second} {
		c := &Client{backoff: base}
		for attempt := 1; attempt <= 100; attempt++ {
			if d := c.backoffDelay(attempt); d < 0 || d >= 2*maxBackoff {
				t.Fatalf("base %v, attempt %d: delay %v, want in [0, %v)", base, attempt, d, 2*maxBackoff)
			}
		}
	}
}

func TestPoolCloseRacesResolve(t *testing.T) {
	cl := startReplicated(t, 2, 1)
	for round := 0; round < 8; round++ {
		client, err := Dial("tcp", cl.Addrs()[0], fastOpts(WithRetries(0))...)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				p := core.ParsePath(testPaths[g%len(testPaths)])
				// Either outcome is fine; what must not happen is a leak
				// or a deadlock (the race detector and -timeout watch).
				_, _ = client.Resolve(p)
			}(g)
		}
		client.Close()
		wg.Wait()
	}
}

// TestCoalescedFailureSharedAndNotReused is the singleflight failure
// contract: waiters coalesced onto a failing flight observe the same
// error, and the next call starts a fresh flight with a fresh dial rather
// than reusing the poisoned one.
func TestCoalescedFailureSharedAndNotReused(t *testing.T) {
	cl := startReplicated(t, 1, 1)
	client, err := Dial("tcp", cl.Addrs()[0],
		WithTimeout(300*time.Millisecond), WithRetries(0), WithBackoff(0))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cl.Fault(0, 0).SetMode(faultnet.Hang)
	p := core.ParsePath("usr/bin/ls")
	const concurrent = 6
	var wg sync.WaitGroup
	errs := make([]error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Resolve(p)
		}(i)
	}
	// Wait until all but the leader share its flight, then let the hang
	// time out.
	for client.Metrics().Coalesced < concurrent-1 {
		runtime.Gosched()
	}
	wg.Wait()

	if errs[0] == nil {
		t.Fatal("hung flight succeeded")
	}
	for i := 1; i < concurrent; i++ {
		if errs[i] != errs[0] {
			t.Fatalf("waiter %d error %v is not the flight's error %v", i, errs[i], errs[0])
		}
	}
	misses := client.Metrics().Misses
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (one shared failing flight)", misses)
	}

	// Heal the shard: the next resolve must re-dial on a fresh flight.
	cl.Fault(0, 0).SetMode(faultnet.Pass)
	e, err := client.Resolve(p)
	if err != nil {
		t.Fatalf("Resolve after heal: %v (poisoned flight reused?)", err)
	}
	want, _ := cl.Trees[0].Lookup(p)
	if e != want {
		t.Fatalf("Resolve after heal = %v, want %v", e, want)
	}
	if misses := client.Metrics().Misses; misses != 2 {
		t.Fatalf("misses = %d, want 2 (second call started its own flight)", misses)
	}
}

// A batch whose answer would exceed the wire's frame bound, and one whose
// request would, each fail as that call's own error: the connection that
// carried them keeps serving, and the cluster client neither fails over nor
// charges a replica for a request no replica can answer.
func TestOversizedBatchFailsAloneNotTheConnection(t *testing.T) {
	cl := startCluster(t, 1)
	names := func(n int) []core.Path {
		ps := make([]core.Path, n)
		for i := range ps {
			ps[i] = core.ParsePath(fmt.Sprintf("no/such/%05d", i))
		}
		return ps
	}
	// 30 000 unbound names: a 450 KB request, an answer over 1 MiB.
	bigAnswer := names(30000)
	// 80 000 names: a 1.2 MB request.
	bigRequest := names(80000)
	ls := core.ParsePath("usr/bin/ls")

	nc, err := nameserver.Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var re *nameserver.RemoteError
	if _, _, err := nc.ResolveBatchRev(bigAnswer); !errors.As(err, &re) {
		t.Fatalf("oversized answer: err = %v, want a RemoteError", err)
	}
	if _, _, err := nc.ResolveBatchRev(bigRequest); !errors.Is(err, syscall.EMSGSIZE) {
		t.Fatalf("oversized request: err = %v, want syscall.EMSGSIZE", err)
	}
	if err := nc.Err(); err != nil {
		t.Fatalf("an oversized batch poisoned the connection: %v", err)
	}
	if _, err := nc.Resolve(ls); err != nil {
		t.Fatalf("Resolve after the oversized batches: %v", err)
	}

	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.ResolveBatch(bigAnswer); !isRemote(err) {
		t.Fatalf("cluster oversized answer: err = %v, want a RemoteError", err)
	}
	if _, err := client.ResolveBatch(bigRequest); !errors.Is(err, syscall.EMSGSIZE) {
		t.Fatalf("cluster oversized request: err = %v, want the client's own refusal (syscall.EMSGSIZE)", err)
	}
	if n := client.Metrics().Failovers; n != 0 {
		t.Fatalf("Failovers = %d after oversized batches, want 0", n)
	}
	if _, err := client.Resolve(ls); err != nil {
		t.Fatalf("cluster Resolve after the oversized batches: %v", err)
	}
}

// fakeReplica answers the version handshake and then every request frame
// with a response body the test builds from the request's ID. It reads up
// to depth frames (waiting at most 200 ms for each after the first) before
// answering any of them, so concurrent calls are all in flight on one
// connection when the first answer lands.
func fakeReplica(t *testing.T, depth int, answer func(id uint64) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	serve := func(conn net.Conn) {
		br := bufio.NewReader(conn)
		if _, err := br.ReadByte(); err != nil {
			return
		}
		if _, err := conn.Write([]byte{0xB2}); err != nil {
			return
		}
		for {
			var ids []uint64
			for len(ids) < depth {
				if len(ids) > 0 {
					_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				}
				n, err := binary.ReadUvarint(br)
				if err != nil {
					break
				}
				body := make([]byte, n)
				if _, err := io.ReadFull(br, body); err != nil {
					return
				}
				id, _ := binary.Uvarint(body)
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				return
			}
			_ = conn.SetReadDeadline(time.Time{})
			for _, id := range ids {
				body := answer(id)
				if _, err := conn.Write(append(binary.AppendUvarint(nil, uint64(len(body))), body...)); err != nil {
					return
				}
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// emptyResponse is a well-formed response body for id with every field
// zero: no entity, no error, no results.
func emptyResponse(id uint64) []byte {
	return append(binary.AppendUvarint(nil, id), make([]byte, 9)...)
}

// A replica that answers a batch wrongly is a transport fault, whatever
// state the wire client is left in: a well-formed answer with the wrong
// number of results (the connection is not poisoned) and a malformed frame
// delivered to a pipelined caller that is not the one reading (the reader
// poisons the connection only after waking that caller) are each retried
// and charged to the replica, never returned as the batch's answer.
func TestFaultyBatchAnswerFailsOver(t *testing.T) {
	paths := []core.Path{core.ParsePath("usr/bin/ls")}

	t.Run("result count", func(t *testing.T) {
		addr := fakeReplica(t, 1, emptyResponse)
		c := NewClient("tcp", &nameserver.RouteInfo{Addrs: []string{addr}}, fastOpts(WithRetries(1))...)
		defer c.Close()
		_, err := c.ResolveBatch(paths)
		if err == nil || isRemote(err) {
			t.Fatalf("err = %v, want a transport failure", err)
		}
		if n := c.Metrics().Failovers; n != 2 {
			t.Fatalf("Failovers = %d, want 2 (both attempts)", n)
		}
	})

	t.Run("pipelined malformed", func(t *testing.T) {
		malformed := func(id uint64) []byte { return append(emptyResponse(id), 0) } // a trailing byte
		addr := fakeReplica(t, 2, malformed)
		c := NewClient("tcp", &nameserver.RouteInfo{Addrs: []string{addr}}, fastOpts(WithRetries(0))...)
		defer c.Close()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = c.ResolveBatch(paths)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err == nil || isRemote(err) {
				t.Errorf("caller %d: err = %v, want a transport failure", i, err)
			}
		}
		if n := c.Metrics().Failovers; n != 2 {
			t.Fatalf("Failovers = %d, want 2 (one per caller)", n)
		}
	})
}
