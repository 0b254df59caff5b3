package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

// TestResolveNonCanonicalFailsFast pins the cluster client's §6 boundary:
// a non-canonical name is rejected locally — no retries, no failover.
func TestResolveNonCanonicalFailsFast(t *testing.T) {
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for _, p := range []core.Path{{}, {"usr", "bin/ls"}, {"usr", ""}} {
		if _, err := client.Resolve(p); !errors.Is(err, nameserver.ErrNotCanonical) {
			t.Fatalf("Resolve(%q) err = %v, want ErrNotCanonical", p, err)
		}
	}
	if n := client.Metrics().Failovers; n != 0 {
		t.Fatalf("Failovers = %d after local rejections, want 0", n)
	}

	// Mixed batch: the bad name fails in its slot, the good one resolves.
	out, err := client.ResolveBatch([]core.Path{
		core.ParsePath("usr/bin/ls"),
		{"etc", "pass/wd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil {
		t.Fatalf("good slot failed: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, nameserver.ErrNotCanonical) {
		t.Fatalf("bad slot err = %v, want ErrNotCanonical", out[1].Err)
	}
}

// TestClusterRejectsNonCanonical pins §6 at the cluster boundary, with the
// cache on: every non-canonical name fails in Resolve and in its batch slot,
// and nothing reaches a server. {"usr/bin", "ls"} renders the same key as
// the cached usr/bin/ls, so the check must come before the probe — a hit
// there would answer a name the server would refuse.
func TestClusterRejectsNonCanonical(t *testing.T) {
	cl := startCluster(t, 2)
	client, err := Dial("tcp", cl.Addrs()[0], WithLRU(16))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Resolve(core.ParsePath("usr/bin/ls")); err != nil {
		t.Fatal(err)
	}
	served := cl.Metrics().Served
	before := client.Metrics()

	for _, p := range []core.Path{{}, {"usr", ""}, {"usr", "bin/ls"}, {"usr/bin", "ls"}} {
		if e, err := client.Resolve(p); !errors.Is(err, nameserver.ErrNotCanonical) {
			t.Fatalf("Resolve(%q) = %v, %v; want ErrNotCanonical", p, e, err)
		}
		out, err := client.ResolveBatch([]core.Path{p})
		if err != nil || !errors.Is(out[0].Err, nameserver.ErrNotCanonical) {
			t.Fatalf("ResolveBatch(%q) = %v, %v; want ErrNotCanonical in the slot", p, out, err)
		}
	}
	if got := cl.Metrics().Served; got != served {
		t.Fatalf("servers handled %d requests for names the client must refuse", got-served)
	}
	if after := client.Metrics(); after != before {
		t.Fatalf("refused names moved the client's metrics: %+v → %+v", before, after)
	}
}

// TestCloseWaitsForBatchGoroutines pins the join discipline goroleak
// demands: Close must not return while per-shard batch goroutines are
// still running.
func TestCloseWaitsForBatchGoroutines(t *testing.T) {
	cl := startCluster(t, 4)
	client, err := Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	var joins atomic.Int32
	batchJoinHook = func() {
		<-release
		joins.Add(1)
	}
	defer func() { batchJoinHook = nil }()

	paths := make([]core.Path, len(testPaths))
	for i, raw := range testPaths {
		paths[i] = core.ParsePath(raw)
	}
	if _, err := client.ResolveBatch(paths); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		client.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while batch goroutines were still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after batch goroutines finished")
	}
	if joins.Load() == 0 {
		t.Fatal("no batch goroutines ran; the test exercised nothing")
	}

	// After Close, batches fail fast with ErrClientClosed in every slot.
	out, err := client.ResolveBatch(paths)
	if !errors.Is(err, ErrClientClosed) {
		t.Fatalf("ResolveBatch after Close: err = %v, want ErrClientClosed", err)
	}
	for i, r := range out {
		if !errors.Is(r.Err, ErrClientClosed) {
			t.Fatalf("slot %d err = %v, want ErrClientClosed", i, r.Err)
		}
	}
}
