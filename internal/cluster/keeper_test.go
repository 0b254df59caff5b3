package cluster

import (
	"testing"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
)

// flushAndCompare flushes k and holds what it committed for shard i to the
// reference — ShardRoot, a stateless walk of everything, into an empty store
// — at the primary's revision. It returns how many nodes the flush put.
func flushAndCompare(t *testing.T, c *Cluster, k *snapstore.Keeper, i int) int {
	t.Helper()
	before := k.Store().CAS().Stats().Puts
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	puts := k.Store().CAS().Stats().Puts - before
	want, err := c.ShardRoot(snapstore.New(cas.NewStore(cas.NewMem())), i, 0)
	if err != nil {
		t.Fatal(err)
	}
	last, ok := k.Store().Latest(i)
	if !ok || last.Root != want.String() || last.Rev != c.Server(i).Revision() {
		t.Fatalf("shard %d: keeper committed %+v; a walk of everything gives %s at revision %d", i, last, want, c.Server(i).Revision())
	}
	return puts
}

// TestTrackFlushesWhatChanged: a tracked shard's flush re-encodes the
// directory written to and the ones above it — from the first flush on,
// because the encoder starts from the bring-up snapshot — walks everything
// after a mkcontext, and is incremental again afterwards; a restored shard's
// first flush is the walk that seeds it.
func TestTrackFlushesWhatChanged(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 2, 1, WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	k := snapstore.NewKeeper(st, 0)
	c.Track(k)
	s := c.Plan.Prefixes["usr"]
	srv := c.Server(s)
	ls, err := c.Trees[s].Lookup(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	bin := core.ParsePath("usr/bin")
	const spine = 3 // usr/bin, usr, the shard's root

	if _, err := srv.Bind(bin, "ls2", ls); err != nil {
		t.Fatal(err)
	}
	if puts := flushAndCompare(t, c, k, s); puts != spine {
		t.Fatalf("first flush after bring-up put %d nodes, want the %d on the written directory's spine", puts, spine)
	}
	cl, err := nameserver.Dial("tcp", c.Addrs()[s])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Mkcontext(bin, "sub"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Bind(bin.Append("sub"), "ls", ls); err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	if puts := flushAndCompare(t, c, k, s); puts <= spine+1 {
		t.Fatalf("flush after a mkcontext put %d nodes: it must walk everything", puts)
	}
	if _, err := srv.Unbind(bin, "ls2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trees[s].Create(core.ParsePath("usr/bin/sub/new"), "in process"); err != nil {
		t.Fatal(err)
	}
	if puts := flushAndCompare(t, c, k, s); puts != spine+2 { // + usr/bin/sub and the new file
		t.Fatalf("flush after two leaf writes put %d nodes, want %d", puts, spine+2)
	}
	c.Close()
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewReplicated(core.NewWorld(), snapSpec, 2, 1, WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	k2 := snapstore.NewKeeper(st, 0)
	defer k2.Close()
	c2.Track(k2)
	for i, want := range []int{-1, spine + 1} { // the seeding walk, then usr/bin/sub's spine
		if _, err := c2.Server(s).Unbind(bin.Append("sub"), []core.Name{"ls", "new"}[i]); err != nil {
			t.Fatal(err)
		}
		if puts := flushAndCompare(t, c2, k2, s); want >= 0 && puts != want {
			t.Fatalf("flush %d after a restore put %d nodes, want %d", i+1, puts, want)
		}
	}
}

// TestKeeperThatNeverTicksRetainsNothing is nsd -data -snap-interval 0: the
// keeper reads the log once, at shutdown, ten thousand writes after its
// position. The log must not have retained them on its account, and the
// flush — told "everything" — still commits the right root.
func TestKeeperThatNeverTicksRetainsNothing(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 1, 1, WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := snapstore.NewKeeper(st, 0)
	c.Track(k)
	k.Start()
	srv := c.Server(0)
	ls, err := c.Trees[0].Lookup(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	bin := core.ParsePath("usr/bin")
	for i := 0; i < 5000; i++ {
		if _, err := srv.Bind(bin, "churn", ls); err != nil {
			t.Fatal(err)
		}
		if i < 4999 {
			_, err = srv.Unbind(bin, "churn")
		} else {
			_, err = srv.Bind(bin, "kept", ls)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	f := srv.Follow()
	_, retained, _ := f.Lag()
	f.Close()
	if retained > 1024 {
		t.Fatalf("the log holds %d entries for a keeper that never read it: a keeper position pins nothing", retained)
	}
	if puts := flushAndCompare(t, c, k, 0); puts < 8 {
		t.Fatalf("the flush put %d nodes: 10000 entries behind, it must walk everything", puts)
	}
}

// TestWriteAfterLastTickSurvivesShutdown: a write acknowledged after the
// keeper's last periodic flush is in the manifest once the daemon has shut
// down the way cmd/nsd does — the cluster closed first, then the keeper,
// whose final flush reads the closed primary's log.
func TestWriteAfterLastTickSurvivesShutdown(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 1, 1, WithSnapStore(st))
	if err != nil {
		t.Fatal(err)
	}
	k := snapstore.NewKeeper(st, time.Hour)
	c.Track(k)
	k.Start()
	cl, err := nameserver.Dial("tcp", c.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	ls, _, _, err := cl.ResolveRev(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Bind(core.ParsePath("usr/bin"), "before", ls); err != nil {
		t.Fatal(err)
	}
	flushAndCompare(t, c, k, 0) // the last tick
	rev, err := cl.Bind(core.ParsePath("etc"), "after", ls)
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	c.Close()
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := c.ShardRoot(snapstore.New(cas.NewStore(cas.NewMem())), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last, ok := st.Latest(0); !ok || last.Rev != rev || last.Root != want.String() {
		t.Fatalf("manifest after shutdown names %+v; the acknowledged write committed at revision %d, root %s", last, rev, want)
	}
	tr, err := st.Restore(want, core.NewWorld(), "root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Lookup(core.ParsePath("etc/after")); err != nil {
		t.Fatalf("the write acknowledged after the last tick is not in the committed snapshot: %v", err)
	}
}
