package cluster

import (
	"testing"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
)

const snapSpec = `
dir /usr/bin
file /usr/bin/ls "#!ls"
file /etc/passwd "root:0:staff"
file /home/alice/notes "todo"
`

func newSnapStore(t *testing.T) *snapstore.Store {
	t.Helper()
	st, err := snapstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// A cluster built over a fresh snap store commits each shard's initial
// root, and a second cluster over the same store restores from those
// roots instead of the spec — the crash-recovery path — resuming at the
// committed revision.
func TestClusterRecoversFromSnapStore(t *testing.T) {
	st := newSnapStore(t)

	w1 := core.NewWorld()
	c1, err := NewReplicated(w1, snapSpec, 2, 1, WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c1.Shards(); i++ {
		if _, ok := st.Latest(i); !ok {
			t.Fatalf("shard %d has no committed root after fresh bring-up", i)
		}
		if _, ok := c1.Recovered(i); ok {
			t.Fatalf("fresh shard %d claims to be recovered", i)
		}
	}
	// The shard serving /usr, advanced and re-committed as a keeper would.
	s := c1.Plan.Prefixes["usr"]
	for j := 0; j < 5; j++ {
		c1.Server(s).Bump()
	}
	rootS, err := c1.ShardRoot(st, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(s, c1.Server(s).Revision(), rootS); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Restart: same store, fresh world.
	w2 := core.NewWorld()
	c2, err := NewReplicated(w2, snapSpec, 2, 1, WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rev, ok := c2.Recovered(s)
	if !ok || rev != 5 {
		t.Fatalf("Recovered(%d) = %d, %v; want 5, true", s, rev, ok)
	}
	if got := c2.Server(s).Revision(); got != 5 {
		t.Fatalf("recovered server revision = %d, want 5", got)
	}
	// The restored shard serves the full graph over the wire, reporting
	// the recovered revision.
	cl, err := nameserver.Dial("tcp", c2.Addrs()[s])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	_, _, gotRev, err := cl.ResolveRev(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatalf("restored shard cannot resolve: %v", err)
	}
	if gotRev != 5 {
		t.Fatalf("wire revision after recovery = %d, want 5", gotRev)
	}
	// Structural identity: re-snapshotting the restored shard reproduces
	// the committed root.
	again, err := c2.ShardRoot(st, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again != rootS {
		t.Fatalf("restored shard re-snapshots to %s, want %s", again, rootS)
	}
}

// Replicas brought up from a committed root transfer blobs by hash-diff
// catch-up, and every replica's subtree hashes to the same root as the
// primary's — structural weak coherence.
func TestReplicaBringUpByCatchUp(t *testing.T) {
	st := newSnapStore(t)

	// First life: single replica, commit initial roots.
	w1 := core.NewWorld()
	c1, err := NewReplicated(w1, snapSpec, 2, 1, WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Second life: three replicas per shard, restored + caught up.
	w2 := core.NewWorld()
	c2, err := NewReplicated(w2, snapSpec, 2, 3, WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	stats := c2.CatchUps()
	if len(stats) != 2*2 { // replicas 1 and 2 of each of 2 shards
		t.Fatalf("catch-up stats = %+v, want 4 entries", stats)
	}
	for _, s := range stats {
		if s.Copied == 0 {
			t.Fatalf("replica %d of shard %d copied no blobs", s.Replica, s.Shard)
		}
	}

	scratch := snapstore.New(cas.NewStore(cas.NewMem()))
	for i := 0; i < c2.Shards(); i++ {
		primary, err := c2.ShardRoot(scratch, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r < c2.ReplicasPerShard(); r++ {
			h, err := c2.ShardRoot(scratch, i, r)
			if err != nil {
				t.Fatal(err)
			}
			if h != primary {
				t.Fatalf("shard %d replica %d root %s != primary %s", i, r, h, primary)
			}
		}
	}

	// Replica groups were registered on the restored trees: corresponding
	// entities across replicas of the /usr shard are grouped.
	s := c2.Plan.Prefixes["usr"]
	a, err := c2.ReplicaTrees[s][0].Lookup(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c2.ReplicaTrees[s][1].Lookup(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if !c2.World.SameReplica(a, b) {
		t.Fatal("restored replicas not registered in a replica group")
	}
}
