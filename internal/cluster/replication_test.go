package cluster

import (
	"fmt"
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/faultnet"
)

// replicatedClient brings up a shards×replicas cluster and a client with an
// entity to bind names to.
func replicatedClient(t *testing.T, shards, replicas int) (*Cluster, *Client, core.Entity) {
	t.Helper()
	cl := startReplicated(t, shards, replicas)
	client, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	target, err := client.Resolve(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	return cl, client, target
}

// TestRefusedReplicaApplyIsCountedNotRetried: a backup that has diverged —
// here by hand, a conflicting name bound straight into its tree — refuses
// the replicated apply of that name. The refusal must not wedge the shard:
// the backup's cursor moves past it, DrainReplication returns, later writes
// still arrive, and the divergence is reported on the cursor instead of
// vanishing.
func TestRefusedReplicaApplyIsCountedNotRetried(t *testing.T) {
	cl, client, target := replicatedClient(t, 1, 2)
	usrBin := core.ParsePath("usr/bin")
	other, err := lookupReplica(t, cl, 0, 1, core.ParsePath("usr/bin/cat"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.ReplicaTrees[0][1].Attach(usrBin, "clash", other); err != nil {
		t.Fatal(err)
	}

	if err := client.Bind(usrBin, "clash", target); err != nil {
		t.Fatalf("the primary holds no such name and must accept the write: %v", err)
	}
	if err := client.Bind(usrBin, "after", target); err != nil {
		t.Fatal(err)
	}
	cl.DrainReplication()

	if e, err := lookupReplica(t, cl, 0, 1, core.ParsePath("usr/bin/clash")); err != nil || e != other {
		t.Fatalf("backup's clash = %v, %v; want its own conflicting binding %v kept", e, err, other)
	}
	if e, err := lookupReplica(t, cl, 0, 1, core.ParsePath("usr/bin/after")); err != nil || (e != target && !cl.World.SameReplica(e, target)) {
		t.Fatalf("backup's after = %v, %v; the write behind the refused one never arrived", e, err)
	}
	if behind, _, refused := cl.replicators[0].feeds[0].Lag(); behind != 0 || refused != 1 {
		t.Fatalf("backup's cursor: %d behind, %d refused; want 0 and 1", behind, refused)
	}
	if n := cl.ReplicationPending(); n != 0 {
		t.Fatalf("ReplicationPending = %d after drain", n)
	}
}

// TestAckedWriteIsLostIfPrimaryDiesBeforeReplication documents a known
// hole (ROADMAP item 2; DESIGN §3a): replication is asynchronous and the
// commit log is memory only, so a write the primary acknowledged while a
// backup was unreachable exists nowhere else. If the primary then dies, the
// backup that takes the shard's reads has never heard of the name. This
// test asserts TODAY's behaviour — the acknowledged name does not resolve —
// so the hole cannot close or widen unnoticed; item 4 (succession + repair
// from a durable tail) is what flips the final assertion.
func TestAckedWriteIsLostIfPrimaryDiesBeforeReplication(t *testing.T) {
	cl, client, target := replicatedClient(t, 1, 2)
	acked := core.ParsePath("usr/bin/acked")

	cl.Fault(0, 1).SetMode(faultnet.Reset)
	if err := client.Bind(core.ParsePath("usr/bin"), "acked", target); err != nil {
		t.Fatalf("write with the backup down must be acknowledged: %v", err)
	}
	if n := cl.ReplicationPending(); n != 1 {
		t.Fatalf("ReplicationPending = %d, want the one acknowledged write the backup is owed", n)
	}

	// The primary dies — its log, the only copy of the write, and the
	// appliers reading it die with it — and only then does the backup heal.
	cl.Fault(0, 0).SetMode(faultnet.Reset)
	cl.Server(0).Close()
	cl.replicators[0].wg.Wait()
	cl.Fault(0, 1).SetMode(faultnet.Pass)
	cl.DrainReplication() // returns: nothing is left to drain from

	if _, err := client.Resolve(core.ParsePath("usr/bin/ls")); err != nil {
		t.Fatalf("the healed backup must serve the shard: %v", err)
	}
	if e, err := client.Resolve(acked); err == nil {
		t.Fatalf("acknowledged write survived its primary: %v resolves to %v — the hole is closed, flip this test (ROADMAP item 4)", acked, e)
	} else if !isRemote(err) {
		t.Fatalf("Resolve(%v) = %v, want the backup's definitive \"no such name\"", acked, err)
	}
	if _, err := lookupReplica(t, cl, 0, 1, acked); err == nil {
		t.Fatal("the backup holds the name after all")
	}
}

// TestOutageBacklogIsHeldOncePerShard: with one of two backups down, the
// writes it is owed are held once, in the primary's log — not once per
// backup. The healthy backup's cursor is at the head, the dead one's is the
// whole churn behind, and the log holds exactly the churn.
func TestOutageBacklogIsHeldOncePerShard(t *testing.T) {
	cl, client, target := replicatedClient(t, 1, 3)
	cl.Fault(0, 2).SetMode(faultnet.Reset)
	const churn = 8
	for i := 0; i < churn; i++ {
		if err := client.Bind(core.ParsePath("usr/bin"), core.Name(fmt.Sprintf("churn%d", i)), target); err != nil {
			t.Fatalf("write %d during the outage: %v", i, err)
		}
	}
	healthy, dead := cl.replicators[0].feeds[0], cl.replicators[0].feeds[1]
	healthy.Wait()
	if behind, retained, _ := healthy.Lag(); behind != 0 || retained != churn {
		t.Fatalf("healthy backup: %d behind, log holds %d; want 0 and %d", behind, retained, churn)
	}
	if behind, retained, _ := dead.Lag(); behind != churn || retained != churn {
		t.Fatalf("dead backup: %d behind, log holds %d; want %d and %d", behind, retained, churn, churn)
	}
	if n := cl.ReplicationPending(); n != churn {
		t.Fatalf("ReplicationPending = %d, want %d", n, churn)
	}

	cl.Fault(0, 2).SetMode(faultnet.Pass)
	cl.DrainReplication()
	for i := 0; i < churn; i++ {
		if _, err := lookupReplica(t, cl, 0, 2, core.ParsePath(fmt.Sprintf("usr/bin/churn%d", i))); err != nil {
			t.Fatalf("healed backup missing churn%d: %v", i, err)
		}
	}
	if n := cl.ReplicationPending(); n != 0 {
		t.Fatalf("ReplicationPending = %d after heal and drain", n)
	}
}
