package integration

import (
	"testing"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
)

const recoverySpec = `
dir /usr/bin
file /usr/bin/ls "#!ls"
file /usr/bin/cat "#!cat"
file /etc/passwd "root:0:staff"
file /home/alice/notes "icdcs"
link /mnt /usr
`

// A killed-and-restarted shard recovers its full naming graph from the
// durable store and serves byte-equal canonical answers at the same
// revision: every (entity, revision) pair a client reads from one
// restored incarnation is identical in the next.
func TestKilledShardRecoversAndServesEqualAnswers(t *testing.T) {
	dir := t.TempDir()
	paths := []core.Path{
		core.ParsePath("usr/bin/ls"),
		core.ParsePath("usr/bin/cat"),
		core.ParsePath("etc/passwd"),
		core.ParsePath("mnt/bin/ls"),
		core.ParsePath("home/alice/notes"),
	}

	// First life: built from the spec; its roots are committed at
	// bring-up. Mutate one shard, commit the mutation, then die without
	// any further ceremony — the abrupt-kill path.
	openStore := func() *snapstore.Store {
		st, err := snapstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := openStore()
	w1 := core.NewWorld()
	c1, err := cluster.New(w1, recoverySpec, 2, cluster.WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	home := c1.Plan.Prefixes["home"]
	if _, err := c1.Trees[home].Create(core.ParsePath("home/alice/draft"), "v2"); err != nil {
		t.Fatal(err)
	}
	wantRev := c1.Server(home).Revision() // bumped by the watched bind
	if wantRev == 0 {
		t.Fatal("mutation did not bump the watched shard revision")
	}
	root, err := c1.ShardRoot(st, home, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(home, wantRev, root); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	type answer struct {
		ent core.Entity
		rev uint64
	}
	collect := func(c *cluster.Cluster) []answer {
		t.Helper()
		routes := c.Routes()
		var out []answer
		for _, p := range paths {
			shard := routes.ShardFor(p)
			cl, err := nameserver.Dial("tcp", routes.Addrs[shard])
			if err != nil {
				t.Fatal(err)
			}
			e, _, rev, err := cl.ResolveRev(p)
			_ = cl.Close()
			if err != nil {
				t.Fatalf("resolve %q: %v", p, err)
			}
			out = append(out, answer{ent: e, rev: rev})
		}
		return out
	}

	// Second life: recovered from the store in a fresh world/process.
	st2 := openStore()
	w2 := core.NewWorld()
	c2, err := cluster.New(w2, recoverySpec, 2, cluster.WithSnapStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if rev, ok := c2.Recovered(home); !ok || rev != wantRev {
		t.Fatalf("Recovered(%d) = %d, %v; want %d", home, rev, ok, wantRev)
	}
	// The committed mutation survived the kill.
	if _, err := c2.Trees[home].Lookup(core.ParsePath("home/alice/draft")); err != nil {
		t.Fatalf("committed mutation lost: %v", err)
	}
	second := collect(c2)
	c2.Close()

	// Third life: every answer is byte-for-byte the second life's.
	st3 := openStore()
	w3 := core.NewWorld()
	c3, err := cluster.New(w3, recoverySpec, 2, cluster.WithSnapStore(st3))
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	third := collect(c3)
	for i := range second {
		if second[i] != third[i] {
			t.Fatalf("answer for %q drifted across restarts: %+v vs %+v",
				paths[i], second[i], third[i])
		}
	}
}

// The keeper's final flush on graceful shutdown commits the last revision:
// a mutation made while serving needs no manual commit to survive.
func TestKeeperFinalFlushCommitsLastRevision(t *testing.T) {
	dir := t.TempDir()
	st, err := snapstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorld()
	c, err := cluster.New(w, recoverySpec, 1, cluster.WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	keeper := snapstore.NewKeeper(st, 0)
	srv := c.Server(0)
	c.Track(keeper)
	keeper.Start()

	if _, err := c.Trees[0].Create(core.ParsePath("etc/new"), "fresh"); err != nil {
		t.Fatal(err)
	}
	rev := srv.Revision()
	c.Close()
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the final flush left the mutated graph at the last revision.
	st2, err := snapstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	last, ok := st2.Latest(0)
	if !ok || last.Rev != rev {
		t.Fatalf("Latest(0) = %+v, %v; want rev %d", last, ok, rev)
	}
	h, err := last.RootHash()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st2.Restore(h, core.NewWorld(), "root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Lookup(core.ParsePath("etc/new")); err != nil {
		t.Fatalf("final-flushed mutation missing: %v", err)
	}
}
