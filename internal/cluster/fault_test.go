package cluster

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/faultnet"
)

// startReplicated builds a replicated cluster over the test spec.
func startReplicated(t *testing.T, shards, replicas int) *Cluster {
	t.Helper()
	w := core.NewWorld()
	c, err := NewReplicated(w, testSpec, shards, replicas)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
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
	if client.Failovers() == 0 {
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
	served := cl.Served()
	if _, err := client.Resolve(pUsr); err != nil {
		t.Fatal(err)
	}
	if cl.Served() != served {
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
	for client.Coalesced() < concurrent-1 {
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
	_, misses := client.Stats()
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
	if _, misses := client.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (second call started its own flight)", misses)
	}
}
