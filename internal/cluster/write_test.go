package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/faultnet"
	"namecoherence/internal/nameserver"
)

// lookupReplica resolves p in one replica's subtree directly (no wire).
func lookupReplica(t *testing.T, cl *Cluster, shard, r int, p core.Path) (core.Entity, error) {
	t.Helper()
	return cl.ReplicaTrees[shard][r].Lookup(p)
}

// TestClusterWriteReplication drives every mutation verb through the
// cluster write path and checks the backups converge: each backup holds a
// replica of every written binding, and every replica server's revision
// reaches the primary's commit revision (the monotonic SetRevision
// adoption).
func TestClusterWriteReplication(t *testing.T) {
	cl := startReplicated(t, 2, 3)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	target, err := client.Resolve(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Bind(core.ParsePath("usr/bin"), "ls2", target); err != nil {
		t.Fatal(err)
	}
	dir, err := client.Mkcontext(core.ParsePath("usr"), "local")
	if err != nil {
		t.Fatal(err)
	}
	if dir.IsUndefined() {
		t.Fatal("Mkcontext returned undefined entity")
	}
	if err := client.Bind(core.ParsePath("usr/local"), "tool", target); err != nil {
		t.Fatal(err)
	}
	if err := client.Unbind(core.ParsePath("usr/bin"), "cat"); err != nil {
		t.Fatal(err)
	}
	cl.DrainReplication()
	if n := cl.Metrics().ReplicationPending; n != 0 {
		t.Fatalf("ReplicationPending = %d after drain", n)
	}

	shard := cl.Routes().ShardFor(core.ParsePath("usr/bin/ls2"))
	for r := 0; r < cl.ReplicasPerShard(); r++ {
		for _, raw := range []string{"usr/bin/ls2", "usr/local/tool"} {
			e, err := lookupReplica(t, cl, shard, r, core.ParsePath(raw))
			if err != nil {
				t.Fatalf("replica %d: %s missing after drain: %v", r, raw, err)
			}
			if e != target && !cl.World.SameReplica(e, target) {
				t.Fatalf("replica %d: %s = %v, not a replica of %v", r, raw, e, target)
			}
		}
		if _, err := lookupReplica(t, cl, shard, r, core.ParsePath("usr/bin/cat")); err == nil {
			t.Fatalf("replica %d still has the unbound name", r)
		}
		// Backups adopt the primary's revision tag, never exceeding it on
		// account of replication alone.
		if pr, rr := cl.Server(shard).Revision(), cl.ReplicaServer(shard, r).Revision(); rr != pr {
			t.Fatalf("replica %d revision = %d, primary = %d", r, rr, pr)
		}
	}

	// The created directory is a replica group: every backup's copy of
	// usr/local is SameReplica with the primary's.
	for r := 1; r < cl.ReplicasPerShard(); r++ {
		e, err := lookupReplica(t, cl, shard, r, core.ParsePath("usr/local"))
		if err != nil {
			t.Fatal(err)
		}
		if !cl.World.SameReplica(e, dir) {
			t.Fatalf("replica %d usr/local = %v, not grouped with created %v", r, e, dir)
		}
	}
}

// TestWriteChurnDuringReplicaOutage is the faultnet regression: writes
// arriving while a backup is down must apply on the primary with a
// revision tag, queue for the backup, and converge once it heals — weak
// coherence across the recovery, not lost writes.
func TestWriteChurnDuringReplicaOutage(t *testing.T) {
	cl := startReplicated(t, 2, 2)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	target, err := client.Resolve(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	shard := cl.Routes().ShardFor(core.ParsePath("usr/bin/x"))

	// Take the shard's backup down, then churn writes. Every write must
	// succeed: the primary is up, and replication is asynchronous.
	cl.Fault(shard, 1).SetMode(faultnet.Reset)
	const churn = 8
	for i := 0; i < churn; i++ {
		if err := client.Bind(core.ParsePath("usr/bin"), core.Name(fmt.Sprintf("churn%d", i)), target); err != nil {
			t.Fatalf("write %d during backup outage: %v", i, err)
		}
	}
	// The primary has all of them; the dead backup has none.
	for i := 0; i < churn; i++ {
		p := core.ParsePath(fmt.Sprintf("usr/bin/churn%d", i))
		if _, err := lookupReplica(t, cl, shard, 0, p); err != nil {
			t.Fatalf("primary missing churn%d: %v", i, err)
		}
	}
	if cl.Metrics().ReplicationPending == 0 {
		t.Fatal("no writes pending for the dead backup")
	}

	// Heal and wait for convergence.
	cl.Fault(shard, 1).SetMode(faultnet.Pass)
	cl.DrainReplication()
	for i := 0; i < churn; i++ {
		p := core.ParsePath(fmt.Sprintf("usr/bin/churn%d", i))
		e, err := lookupReplica(t, cl, shard, 1, p)
		if err != nil {
			t.Fatalf("backup missing churn%d after heal+drain: %v", i, err)
		}
		if e != target && !cl.World.SameReplica(e, target) {
			t.Fatalf("backup churn%d = %v, not a replica of %v", i, e, target)
		}
	}
	if pr, rr := cl.Server(shard).Revision(), cl.ReplicaServer(shard, 1).Revision(); rr != pr {
		t.Fatalf("backup revision = %d after convergence, primary = %d", rr, pr)
	}

	// Weak coherence across the recovery: independent clients — including
	// one that can only reach the healed backup — agree up to replicas.
	paths := make([]core.Path, 0, churn)
	for i := 0; i < churn; i++ {
		paths = append(paths, core.ParsePath(fmt.Sprintf("usr/bin/churn%d", i)))
	}
	second, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	cl.Fault(shard, 0).SetMode(faultnet.Reset) // now only the backup serves
	rep := coherence.MeasureResolvers(cl.World, []coherence.Resolver{client, second}, paths)
	if rep.WeakDegree() != 1.0 {
		t.Fatalf("weak coherence degree = %v after recovery, want 1.0 (%+v)", rep.WeakDegree(), rep)
	}
}

// TestWriteFailsCleanlyWhenPrimaryDead checks the no-failover write rule:
// with the shard's primary unreachable a write returns a transport error —
// it is not silently retried against a backup (a non-idempotent retry
// could double-apply) and nothing changes anywhere.
func TestWriteFailsCleanlyWhenPrimaryDead(t *testing.T) {
	cl := startReplicated(t, 2, 2)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Fault the primary before the client ever reaches it: a write must
	// then fail at dial time, before any request could partially apply.
	// (Faulting an established connection can instead lose just the
	// response after the server applied the mutation — the exact hazard
	// that rules out retrying writes.)
	shard := cl.Routes().ShardFor(core.ParsePath("usr/bin/dead"))
	cl.Fault(shard, 0).SetMode(faultnet.Reset)
	target, err := cl.Trees[shard].Lookup(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}

	if err := client.Bind(core.ParsePath("usr/bin"), "dead", target); err == nil {
		t.Fatal("write succeeded with the primary dead")
	}
	for r := 0; r < cl.ReplicasPerShard(); r++ {
		if _, err := lookupReplica(t, cl, shard, r, core.ParsePath("usr/bin/dead")); err == nil {
			t.Fatalf("replica %d has the failed write", r)
		}
	}

	// The primary is replica 0 forever: kept dead for longer than the
	// breaker cooldown, every write still fails, every read is answered by
	// the live backup (its own replica of ls, not the primary's), and no
	// write ever moves to that backup.
	backupLs, err := lookupReplica(t, cl, shard, 1, core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(3 * defaultBreakerCooldown); time.Now().Before(end); time.Sleep(defaultBreakerCooldown / 5) {
		if err := client.Bind(core.ParsePath("usr/bin"), "dead", target); err == nil {
			t.Fatal("write succeeded with the primary dead past the breaker cooldown")
		}
		if e, err := client.Resolve(core.ParsePath("usr/bin/ls")); err != nil || e != backupLs {
			t.Fatalf("read with primary dead = %v, %v; want replica 1's %v", e, err, backupLs)
		}
	}
	for r := 0; r < cl.ReplicasPerShard(); r++ {
		if _, err := lookupReplica(t, cl, shard, r, core.ParsePath("usr/bin/dead")); err == nil {
			t.Fatalf("replica %d has a write refused while the primary was dead", r)
		}
	}

	// Once the primary heals the same write goes through.
	cl.Fault(shard, 0).SetMode(faultnet.Pass)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := client.Bind(core.ParsePath("usr/bin"), "dead", target); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write still failing after primary healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNonCanonicalWriteRefusedBeforeDial: with every shard's primary down,
// a write whose directory or name is not wire-canonical fails with
// ErrNotCanonical, not with the error the dead primary would give: the
// name is checked before a connection is taken for it (§6), so a bad name
// neither burns a dial nor charges a primary's breaker. A canonical write
// beside it meets the dead primary.
func TestNonCanonicalWriteRefusedBeforeDial(t *testing.T) {
	cl := startReplicated(t, 2, 2)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	target, err := cl.Trees[0].Lookup(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < cl.Shards(); shard++ {
		cl.Fault(shard, 0).SetMode(faultnet.Reset)
	}

	for _, w := range []struct {
		dir  core.Path
		name core.Name
	}{
		{core.ParsePath("usr/bin"), "a/b"},
		{core.ParsePath("usr/bin"), ""},
		{nil, "usr/bin"},
		{core.Path{"usr", "bin/x"}, "ok"},
		{core.Path{"usr", ""}, "ok"},
	} {
		if err := client.Bind(w.dir, w.name, target); !errors.Is(err, nameserver.ErrNotCanonical) {
			t.Errorf("Bind(%q, %q) = %v, want ErrNotCanonical", w.dir, w.name, err)
		}
		if err := client.Unbind(w.dir, w.name); !errors.Is(err, nameserver.ErrNotCanonical) {
			t.Errorf("Unbind(%q, %q) = %v, want ErrNotCanonical", w.dir, w.name, err)
		}
		if _, err := client.Mkcontext(w.dir, w.name); !errors.Is(err, nameserver.ErrNotCanonical) {
			t.Errorf("Mkcontext(%q, %q) = %v, want ErrNotCanonical", w.dir, w.name, err)
		}
	}
	if err := client.Bind(core.ParsePath("usr/bin"), "fresh", target); err == nil || errors.Is(err, nameserver.ErrNotCanonical) {
		t.Fatalf("canonical Bind with the primaries dead = %v, want the dead primary's error", err)
	}
}

// TestRefusedWriteClearsPrimaryBreaker: a write the primary refuses is an
// answer, as a refused read is. It clears the failures charged against the
// primary's breaker instead of leaving them to open it.
func TestRefusedWriteClearsPrimaryBreaker(t *testing.T) {
	cl := startReplicated(t, 1, 2)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	set := client.shards[0]
	set.mu.Lock()
	set.charge(0)
	set.mu.Unlock()
	err = client.Bind(core.ParsePath("no/such/dir"), "x", core.Undefined)
	if !isRemote(err) {
		t.Fatalf("Bind into a missing directory = %v, want a refusal", err)
	}
	set.mu.Lock()
	failures := set.breakers[0].failures
	set.mu.Unlock()
	if failures != 0 {
		t.Fatalf("primary's breaker holds %d failures after a refused write, want 0", failures)
	}
}

// dropFirstReplyProxy forwards every connection it accepts to upstream.
// On the first one it passes the server's one-byte version reply and then
// discards everything else the server sends, so a request arrives and
// applies but its response never reaches the client. Later connections
// pass both ways. The copies hide the conns' ReadFrom/WriteTo: a TCP-to-TCP
// io.Copy splices through pooled pipes that outlive the test, and
// leakcheck counts them.
func dropFirstReplyProxy(t *testing.T, upstream string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		conns  []net.Conn
		closed bool
	)
	track := func(c net.Conn) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			_ = c.Close()
			return
		}
		conns = append(conns, c)
	}
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		closed = true
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			track(down)
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				_ = down.Close()
				continue
			}
			track(up)
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(struct{ io.Writer }{up}, struct{ io.Reader }{down})
				_ = up.Close()
			}()
			go func(lossy bool) {
				defer wg.Done()
				dst, src := io.Writer(struct{ io.Writer }{down}), io.Reader(struct{ io.Reader }{up})
				if lossy {
					_, _ = io.CopyN(dst, src, 1)
					dst = io.Discard
				}
				_, _ = io.Copy(dst, src)
				_ = down.Close()
			}(first)
		}
	}()
	return ln.Addr().String()
}

// TestLostAckMakesAWriteUnretryable pins a hole (ROADMAP item 2): a write
// whose ack is lost applied anyway, and the client cannot tell. Bind
// returns a transport error, yet the primary holds the binding and the
// backup receives it; the same Bind retried is refused as a conflict with
// the write's own success. Nothing in a reply lets a retry recognise its
// earlier attempt.
func TestLostAckMakesAWriteUnretryable(t *testing.T) {
	cl := startReplicated(t, 2, 2)
	name := core.ParsePath("usr/bin/lost")
	shard := cl.Routes().ShardFor(name)
	target, err := cl.Trees[shard].Lookup(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	routes := cl.Routes()
	routes.Addrs[shard] = dropFirstReplyProxy(t, routes.Addrs[shard])
	routes.Replicas[shard][0] = routes.Addrs[shard]
	client := NewClient("tcp", routes, fastOpts()...)
	defer client.Close()

	err = client.Bind(core.ParsePath("usr/bin"), "lost", target)
	var remote *nameserver.RemoteError
	if err == nil || errors.As(err, &remote) {
		t.Fatalf("Bind with its ack lost = %v; want a transport error", err)
	}
	if e, err := lookupReplica(t, cl, shard, 0, name); err != nil || e != target {
		t.Fatalf("primary after the lost ack: %v, %v; want the binding to %v", e, err, target)
	}
	cl.DrainReplication()
	if e, err := lookupReplica(t, cl, shard, 1, name); err != nil || !cl.World.SameReplica(e, target) {
		t.Fatalf("backup after drain: %v, %v; want a replica of %v", e, err, target)
	}

	err = client.Bind(core.ParsePath("usr/bin"), "lost", target)
	if !errors.As(err, &remote) {
		t.Fatalf("retried Bind = %v; want a *RemoteError (already bound)", err)
	}
	t.Logf("retry of a write that applied: %v", err)
}

// TestClusterPushInvalidation checks the push path end to end through the
// cluster client: a subscribed reader's cache is purged by the server's
// frame, not by the reader's next validation round-trip.
func TestClusterPushInvalidation(t *testing.T) {
	cl := startReplicated(t, 2, 2)
	reader, err := Dial("tcp", cl.Addrs()[0], fastOpts(WithLRU(64), WithPushInvalidation())...)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	writer, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	// Prime the reader's cache on the shard about to change.
	p := core.ParsePath("usr/bin/ls")
	target, err := reader.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Bind(core.ParsePath("usr/bin"), "pushed", target); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reader.Metrics().Invalidations == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no pushed invalidation reached the subscribed reader")
		}
		time.Sleep(time.Millisecond)
	}
	// The fresh name resolves through the reader immediately.
	e, err := reader.Resolve(core.ParsePath("usr/bin/pushed"))
	if err != nil {
		t.Fatal(err)
	}
	if e != target && !cl.World.SameReplica(e, target) {
		t.Fatalf("pushed name = %v, not a replica of %v", e, target)
	}
}
