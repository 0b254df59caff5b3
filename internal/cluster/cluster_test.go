package cluster

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

const testSpec = `
dir /usr/bin
file /usr/bin/ls "#!ls"
file /usr/bin/cat "#!cat"
file /etc/passwd "root:0:staff"
file /etc/motd "welcome"
file /home/alice/notes "todo"
file /srv/data "payload"
link /mnt /usr
`

var testPaths = []string{
	"usr/bin/ls", "usr/bin/cat", "etc/passwd", "etc/motd",
	"home/alice/notes", "srv/data", "mnt/bin/ls",
}

// startCluster builds a 4-shard cluster over the test spec.
func startCluster(t testing.TB, shards int) *Cluster {
	t.Helper()
	w := core.NewWorld()
	c, err := New(w, testSpec, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestClusterResolveAcrossShards(t *testing.T) {
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0])
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
		// The answer must match a direct lookup in the owning shard's tree.
		shard := cl.Routes().ShardFor(p)
		want, err := cl.Trees[shard].Lookup(p)
		if err != nil {
			t.Fatalf("shard %d does not hold %s: %v", shard, raw, err)
		}
		if e != want {
			t.Fatalf("Resolve(%s) = %v, want %v", raw, e, want)
		}
	}
	// The link and its target route to the same shard and the same entity.
	viaLink, err := client.Resolve(core.ParsePath("mnt/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := client.Resolve(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if viaLink != direct {
		t.Fatalf("mnt/bin/ls = %v, usr/bin/ls = %v — sharding broke the link", viaLink, direct)
	}
}

func TestClusterDialFromEveryMember(t *testing.T) {
	cl := startCluster(t, 3)
	for i, addr := range cl.Addrs() {
		client, err := Dial("tcp", addr)
		if err != nil {
			t.Fatalf("Dial via shard %d: %v", i, err)
		}
		if _, err := client.Resolve(core.ParsePath("etc/motd")); err != nil {
			t.Fatalf("resolve via shard-%d bootstrap: %v", i, err)
		}
		client.Close()
	}
}

func TestClusterResolveMiss(t *testing.T) {
	cl := startCluster(t, 2)
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Resolve(core.ParsePath("no/such/name")); !isRemote(err) {
		t.Fatalf("Resolve(miss) = %v, want RemoteError", err)
	}
}

func TestClusterBatchOneRoundTripPerShard(t *testing.T) {
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	paths := make([]core.Path, 0, len(testPaths)+1)
	for _, raw := range testPaths {
		paths = append(paths, core.ParsePath(raw))
	}
	paths = append(paths, core.ParsePath("usr/bin/ls")) // duplicate

	servedBefore := cl.Metrics().Served
	results, err := client.ResolveBatch(paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("results[%d] (%s): %v", i, paths[i], r.Err)
		}
	}
	if results[len(results)-1].Entity != results[0].Entity {
		t.Fatal("duplicate path resolved differently")
	}
	// Shards touched = number of distinct shards among the paths; each
	// fields exactly one wire request.
	shardsTouched := make(map[int]bool)
	for _, p := range paths {
		shardsTouched[cl.Routes().ShardFor(p)] = true
	}
	if got := cl.Metrics().Served - servedBefore; got != len(shardsTouched) {
		t.Fatalf("wire requests = %d, want %d (one per shard)", got, len(shardsTouched))
	}
	// The duplicate was deduplicated on the wire.
	if cl.Metrics().Resolved != len(testPaths) {
		t.Fatalf("Resolved = %d, want %d", cl.Metrics().Resolved, len(testPaths))
	}
}

func TestClusterLRURevisionPurgePerShard(t *testing.T) {
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0], WithLRU(32))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pEtc := core.ParsePath("etc/motd")
	pUsr := core.ParsePath("usr/bin/ls")
	for _, p := range []core.Path{pEtc, pUsr} {
		if _, err := client.Resolve(p); err != nil {
			t.Fatal(err)
		}
	}
	// Repeats are cache hits.
	served := cl.Metrics().Served
	if _, err := client.Resolve(pEtc); err != nil {
		t.Fatal(err)
	}
	if cl.Metrics().Served != served {
		t.Fatal("repeat resolve crossed the wire despite the cache")
	}

	// Mutate the shard holding etc: its WatchExport bumps the revision.
	etcShard := cl.Routes().ShardFor(pEtc)
	usrShard := cl.Routes().ShardFor(pUsr)
	if etcShard == usrShard {
		t.Fatalf("test spec routed etc and usr to the same shard %d", etcShard)
	}
	etcDir, err := cl.Trees[etcShard].Lookup(core.ParsePath("etc"))
	if err != nil {
		t.Fatal(err)
	}
	etcCtx, _ := cl.World.ContextOf(etcDir)
	newMotd := cl.World.NewObject("new-motd")
	etcCtx.Bind("motd", newMotd)

	// The next round-trip to that shard purges its entries and refetches.
	got, err := client.Resolve(core.ParsePath("etc/passwd"))
	if err != nil || got.IsUndefined() {
		t.Fatalf("resolve etc/passwd after churn: %v, %v", got, err)
	}
	if client.Metrics().Purges != 1 {
		t.Fatalf("Purges = %d, want 1", client.Metrics().Purges)
	}
	got, err = client.Resolve(pEtc)
	if err != nil {
		t.Fatal(err)
	}
	if got != newMotd {
		t.Fatalf("Resolve(etc/motd) = %v, want the rebound %v", got, newMotd)
	}
	// The usr shard's entry survived the purge: still a cache hit.
	served = cl.Metrics().Served
	if _, err := client.Resolve(pUsr); err != nil {
		t.Fatal(err)
	}
	if cl.Metrics().Served != served {
		t.Fatal("usr entry was purged by an etc revision advance (purge must be per shard)")
	}

	// A batch response carries its shard's revision like any other.
	etcCtx.Bind("motd", cl.World.NewObject("newer-motd"))
	if _, err := client.ResolveBatch([]core.Path{core.ParsePath("etc")}); err != nil { // not cached yet
		t.Fatal(err)
	}
	if client.Metrics().Purges != 2 {
		t.Fatalf("Purges = %d after a batch round-trip past a second rebind, want 2", client.Metrics().Purges)
	}
}

// gateContext blocks lookups of a trigger name until released, letting the
// test pile up concurrent identical lookups deterministically.
type gateContext struct {
	core.Context
	trigger core.Name
	gate    chan struct{}
}

func (c *gateContext) Lookup(n core.Name) core.Entity {
	if n == c.trigger {
		<-c.gate
	}
	return c.Context.Lookup(n)
}

func TestClusterSingleflightCoalescing(t *testing.T) {
	w := core.NewWorld()
	cl, err := New(w, testSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close() // only the tree and plan are reused; serve a gated copy

	gate := &gateContext{
		Context: cl.Trees[0].RootContext(),
		trigger: "usr",
		gate:    make(chan struct{}),
	}
	srv := nameserver.NewServer(w, gate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	routes := &nameserver.RouteInfo{
		Prefixes: map[string]int{},
		Default:  0,
		Addrs:    []string{ln.Addr().String()},
	}
	client := NewClient("tcp", routes)
	defer client.Close()

	p := core.ParsePath("usr/bin/ls")
	const concurrent = 8
	var wg sync.WaitGroup
	got := make([]core.Entity, concurrent)
	errs := make([]error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = client.Resolve(p)
		}(i)
	}
	// Wait until all but the leader are coalesced onto the flight, then
	// let the server answer.
	for client.Metrics().Coalesced < concurrent-1 {
		runtime.Gosched()
	}
	close(gate.gate)
	wg.Wait()

	want, err := cl.Trees[0].Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < concurrent; i++ {
		if errs[i] != nil || got[i] != want {
			t.Fatalf("resolver %d: %v, %v", i, got[i], errs[i])
		}
	}
	misses := client.Metrics().Misses
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight shares one round-trip)", misses)
	}
	if client.Metrics().Coalesced != concurrent-1 {
		t.Fatalf("Coalesced = %d, want %d", client.Metrics().Coalesced, concurrent-1)
	}
	if srv.Metrics().Resolved != 1 {
		t.Fatalf("server resolved %d names, want 1", srv.Metrics().Resolved)
	}
}

// TestClusterCoherenceAcrossClients is the Fig. 4 claim over a real
// sharded deployment: every client of every shard agrees on every
// shared-prefix name, even with caches and concurrent use.
func TestClusterCoherenceAcrossClients(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-client TCP stress test")
	}
	cl := startCluster(t, 4)
	const nClients = 8
	clients := make([]coherence.Resolver, nClients)
	for i := range clients {
		client, err := Dial("tcp", cl.Addrs()[i%len(cl.Addrs())], WithLRU(16))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		clients[i] = client
	}

	// Warm every client concurrently (fills caches in different orders).
	var wg sync.WaitGroup
	for _, r := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for _, raw := range testPaths {
				if _, err := c.Resolve(core.ParsePath(raw)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r.(*Client))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	paths := make([]core.Path, len(testPaths))
	for i, raw := range testPaths {
		paths[i] = core.ParsePath(raw)
	}
	rep := coherence.MeasureResolvers(cl.World, clients, paths)
	if rep.StrictDegree() != 1.0 {
		t.Fatalf("strict coherence degree = %v, want 1.0; report %+v", rep.StrictDegree(), rep)
	}
}

func TestClusterConcurrentMixedUse(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent TCP stress test")
	}
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0], WithLRU(16))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	paths := make([]core.Path, len(testPaths))
	for i, raw := range testPaths {
		paths[i] = core.ParsePath(raw)
	}
	const goroutines, rounds = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if r%3 == 0 {
					results, err := client.ResolveBatch(paths)
					if err != nil {
						t.Error(err)
						return
					}
					for i, res := range results {
						if res.Err != nil {
							t.Errorf("batch[%d]: %v", i, res.Err)
							return
						}
					}
					continue
				}
				p := paths[(g+r)%len(paths)]
				if _, err := client.Resolve(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestClusterSingleShardDegeneratesToOneServer(t *testing.T) {
	cl := startCluster(t, 1)
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, raw := range testPaths {
		if _, err := client.Resolve(core.ParsePath(raw)); err != nil {
			t.Fatalf("Resolve(%s): %v", raw, err)
		}
	}
	if cl.Shards() != 1 {
		t.Fatalf("Shards = %d", cl.Shards())
	}
}

func TestSharedConnReuse(t *testing.T) {
	cl := startCluster(t, 2)
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Sequential resolves to one shard multiplex over one shared conn.
	p := core.ParsePath("etc/motd")
	shard := cl.Routes().ShardFor(p)
	for i := 0; i < 10; i++ {
		if _, err := client.Resolve(p); err != nil {
			t.Fatal(err)
		}
	}
	set := client.shards[shard]
	set.mu.Lock()
	up := 0
	for _, conn := range set.conns {
		if conn != nil {
			up++
		}
	}
	set.mu.Unlock()
	if up != 1 {
		t.Fatalf("shared connections = %d, want 1 (sequential use shares one conn)", up)
	}
}

func TestClusterRejectsBadSpec(t *testing.T) {
	w := core.NewWorld()
	if _, err := New(w, "bogus /x\n", 2); err == nil {
		t.Fatal("New with a bad spec should fail")
	}
	if _, err := New(w, testSpec, 0); err == nil {
		t.Fatal("New with 0 shards should fail")
	}
}

func ExampleClient_ResolveBatch() {
	w := core.NewWorld()
	cl, err := New(w, "file /a/x \"1\"\nfile /b/y \"2\"\n", 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cl.Close()
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		fmt.Println(err)
		return
	}
	defer client.Close()
	results, _ := client.ResolveBatch([]core.Path{
		core.ParsePath("a/x"), core.ParsePath("b/y"),
	})
	fmt.Println(len(results), results[0].Err == nil, results[1].Err == nil)
	// Output: 2 true true
}

// TestDialRefusedByOtherVersion: a seed that answers the handshake with
// another protocol version fails the bootstrap with ErrProtocolVersion —
// there is no codec to fall back to.
func TestDialRefusedByOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hello [1]byte
		if _, err := conn.Read(hello[:]); err == nil {
			_, _ = conn.Write([]byte{0xB3})
		}
	}()
	client, err := Dial("tcp", ln.Addr().String())
	if err == nil {
		client.Close()
		t.Fatal("bootstrap from a seed of another version succeeded")
	}
	if !errors.Is(err, nameserver.ErrProtocolVersion) {
		t.Fatalf("Dial error = %v; want ErrProtocolVersion", err)
	}
}
