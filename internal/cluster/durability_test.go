package cluster

import (
	"testing"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
)

// flushAndCompare flushes c and holds what it committed for shard i to the
// reference — ShardRoot, a stateless walk of everything, into an empty store
// — at the primary's revision. It returns how many nodes the flush put.
func flushAndCompare(t *testing.T, c *Cluster, i int) int {
	t.Helper()
	before := c.snap.CAS().Stats().Puts
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	puts := c.snap.CAS().Stats().Puts - before
	requireCommitted(t, c, i, c.Server(i).Revision())
	return puts
}

// requireCommitted holds shard i's manifest entry to rev and to the root a
// walk of everything gives now.
func requireCommitted(t *testing.T, c *Cluster, i int, rev uint64) {
	t.Helper()
	want, err := c.ShardRoot(snapstore.New(cas.NewStore(cas.NewMem())), i, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last, ok := c.snap.Latest(i); !ok || last.Root != want.String() || last.Rev != rev {
		t.Fatalf("shard %d: the manifest names %+v; a walk of everything gives %s at revision %d", i, last, want, rev)
	}
}

// TestTrackFlushesWhatChanged: a shard's flush re-encodes the directory
// written to and the ones above it — from the first flush on, because the
// encoder starts from the bring-up snapshot — walks everything after a
// mkcontext, and is incremental again afterwards; a restored shard's first
// flush is the walk that seeds it.
func TestTrackFlushesWhatChanged(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 2, 1, WithSnapStore(st, 0))
	if err != nil {
		t.Fatal(err)
	}
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
	if puts := flushAndCompare(t, c, s); puts != spine {
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
	if puts := flushAndCompare(t, c, s); puts <= spine+1 {
		t.Fatalf("flush after a mkcontext put %d nodes: it must walk everything", puts)
	}
	if _, err := srv.Unbind(bin, "ls2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trees[s].Create(core.ParsePath("usr/bin/sub/new"), "in process"); err != nil {
		t.Fatal(err)
	}
	if puts := flushAndCompare(t, c, s); puts != spine+2 { // + usr/bin/sub and the new file
		t.Fatalf("flush after two leaf writes put %d nodes, want %d", puts, spine+2)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewReplicated(core.NewWorld(), snapSpec, 2, 1, WithSnapStore(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i, want := range []int{-1, spine + 1} { // the seeding walk, then usr/bin/sub's spine
		if _, err := c2.Server(s).Unbind(bin.Append("sub"), []core.Name{"ls", "new"}[i]); err != nil {
			t.Fatal(err)
		}
		if puts := flushAndCompare(t, c2, s); want >= 0 && puts != want {
			t.Fatalf("flush %d after a restore put %d nodes, want %d", i+1, puts, want)
		}
	}
}

// TestKeeperThatNeverTicksRetainsNothing is nsd -data -snap-interval 0: the
// cluster reads the log once, at shutdown, ten thousand writes after its
// position. The log must not have retained them on its account, and the
// flush — told "everything" — still commits the right root.
func TestKeeperThatNeverTicksRetainsNothing(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 1, 1, WithSnapStore(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
		t.Fatalf("the log holds %d entries for a flush that never read it: a snapshot position pins nothing", retained)
	}
	if puts := flushAndCompare(t, c, 0); puts < 8 {
		t.Fatalf("the flush put %d nodes: 10000 entries behind, it must walk everything", puts)
	}
}

// TestWriteAfterLastTickSurvivesShutdown: a write acknowledged after the
// last periodic flush is in the manifest once Close has returned; its
// final flush reads the closed primary's log.
func TestWriteAfterLastTickSurvivesShutdown(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 1, 1, WithSnapStore(st, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
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
	flushAndCompare(t, c, 0) // the last tick
	rev, err := cl.Bind(core.ParsePath("etc"), "after", ls)
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	requireCommitted(t, c, 0, rev)
	requireRestores(t, st, 0, "etc/after")
}

// requireRestores restores shard i's committed root and resolves each path
// in it.
func requireRestores(t *testing.T, st *snapstore.Store, i int, paths ...string) {
	t.Helper()
	last, _ := st.Latest(i)
	root, err := last.RootHash()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Restore(root, core.NewWorld(), "root")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, err := tr.Lookup(core.ParsePath(p)); err != nil {
			t.Fatalf("shard %d's committed snapshot lacks the acknowledged write %s: %v", i, p, err)
		}
	}
}

// TestCloseCommitsAcknowledgedWrites: a write each shard of a replicated
// cluster acknowledged over the wire is committed by Close alone — no
// loop, no flush asked for — at that write's revision.
func TestCloseCommitsAcknowledgedWrites(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 2, 2, WithSnapStore(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	revs := map[int]uint64{}
	acked := map[int][]string{}
	for _, file := range []string{"usr/bin/ls", "etc/passwd", "home/alice/notes"} {
		p := core.ParsePath(file)
		s := c.Plan.Prefixes[string(p[0])]
		cl, err := nameserver.Dial("tcp", c.Addrs()[s])
		if err != nil {
			t.Fatal(err)
		}
		e, _, _, err := cl.ResolveRev(p)
		if err != nil {
			t.Fatal(err)
		}
		if revs[s], err = cl.Bind(p[:len(p)-1], "acked", e); err != nil {
			t.Fatal(err)
		}
		acked[s] = append(acked[s], p[:len(p)-1].Append("acked").String())
		_ = cl.Close()
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < c.Shards(); s++ {
		requireCommitted(t, c, s, revs[s])
		requireRestores(t, st, s, acked[s]...)
	}
}

// TestCloseFlushesOnce: a flush at an unmoved revision snapshots nothing,
// Close commits what moved since, and a second Close does nothing at all.
func TestCloseFlushesOnce(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 1, 1, WithSnapStore(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Trees[0]
	if _, err := tr.Create(core.ParsePath("etc/first"), "1"); err != nil {
		t.Fatal(err)
	}
	flushAndCompare(t, c, 0)
	// An encoder that remembers nothing walks everything if it is asked.
	c.cursors[0].enc = st.NewEncoder(c.World, tr.Root)
	if puts := flushAndCompare(t, c, 0); puts != 0 {
		t.Fatalf("a flush at an unmoved revision put %d nodes", puts)
	}
	if _, err := tr.Create(core.ParsePath("etc/final"), "bye"); err != nil {
		t.Fatal(err)
	}
	rev := c.Server(0).Revision()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	requireCommitted(t, c, 0, rev)
	if _, err := tr.Create(core.ParsePath("etc/late"), "after close"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if last, _ := st.Latest(0); last.Rev != rev {
		t.Fatalf("a second Close committed revision %d; the first left %d", last.Rev, rev)
	}
}

// TestFlushBesidePeriodicLoop: a flush beside a 1 ms loop serialises with
// it (run under -race), and Close leaves the last revision committed.
func TestFlushBesidePeriodicLoop(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 1, 1, WithSnapStore(st, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	srv := c.Server(0)
	ls, err := c.Trees[0].Lookup(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	bin := core.ParsePath("usr/bin")
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			_, err = srv.Bind(bin, "churn", ls)
		} else {
			_, err = srv.Unbind(bin, "churn")
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.flush(); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			time.Sleep(2 * time.Millisecond) // let the loop's tick land between flushes
		}
	}
	if _, err := srv.Bind(bin, "last", ls); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	requireCommitted(t, c, 0, srv.Revision())
}

// TestRecoveredShardStartsCaughtUp: a shard restored at the revision its
// manifest names has nothing to commit, by flush or by Close, though its
// encoder remembers nothing yet.
func TestRecoveredShardStartsCaughtUp(t *testing.T) {
	st := newSnapStore(t)
	c, err := NewReplicated(core.NewWorld(), snapSpec, 1, 1, WithSnapStore(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trees[0].Create(core.ParsePath("etc/kept"), "k"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	last, _ := st.Latest(0)

	c2, err := NewReplicated(core.NewWorld(), snapSpec, 1, 1, WithSnapStore(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rev, ok := c2.Recovered(0); !ok || rev != last.Rev {
		t.Fatalf("Recovered(0) = %d, %v; the manifest names revision %d", rev, ok, last.Rev)
	}
	puts := st.CAS().Stats().Puts
	if err := c2.flush(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.CAS().Stats().Puts - puts; got != 0 {
		t.Fatalf("a recovered shard was re-snapshotted: %d nodes put", got)
	}
	if now, _ := st.Latest(0); now != last {
		t.Fatalf("the manifest moved from %+v to %+v with nothing written", last, now)
	}
}
