package cluster

import (
	"net"
	"testing"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/faultnet"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
)

// The cache rule under push (DESIGN §5c): a frame that names its binding
// purges the entries that binding can have answered, applied only as the
// very next commit; everything else purges the shard; an answer older than
// what the frames have shown is never admitted.

// pushClient dials a subscribed, caching client.
func pushClient(t *testing.T, cl *Cluster, opts ...ClientOption) *Client {
	t.Helper()
	c, err := Dial("tcp", cl.Addrs()[0], fastOpts(append(opts, WithLRU(64), WithPushInvalidation())...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// prime resolves every path twice and requires the second round to be all
// hits.
func prime(t *testing.T, c *Client, paths ...string) map[string]core.Entity {
	t.Helper()
	got := map[string]core.Entity{}
	for round := 0; round < 2; round++ {
		hits, _ := c.Stats()
		for _, raw := range paths {
			e, err := c.Resolve(core.ParsePath(raw))
			if err != nil {
				t.Fatalf("prime %s: %v", raw, err)
			}
			got[raw] = e
		}
		if after, _ := c.Stats(); round == 1 && after-hits != len(paths) {
			t.Fatalf("second round over %v: %d hits, want all %d cached", paths, after-hits, len(paths))
		}
	}
	return got
}

// isHit reports whether resolving raw is answered from the cache.
func isHit(t *testing.T, c *Client, raw string) (core.Entity, bool) {
	t.Helper()
	hits, _ := c.Stats()
	e, err := c.Resolve(core.ParsePath(raw))
	if err != nil {
		t.Fatalf("resolve %s: %v", raw, err)
	}
	after, _ := c.Stats()
	return e, after > hits
}

// waitInvalidations waits until c has consumed n frames.
func waitInvalidations(t *testing.T, c *Client, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Invalidations() < n {
		if time.Now().After(deadline) {
			t.Fatalf("consumed %d frames, waiting for %d", c.Invalidations(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRebindPurgesEveryAliasAndNothingElse: /mnt is a second name for the
// directory /usr, so usr/bin/ls and mnt/bin/ls end at one binding. Rebind
// it through one path: the name cached under the other path goes too (a
// purge keyed on path prefixes would keep it, stale), and nothing else does.
func TestRebindPurgesEveryAliasAndNothingElse(t *testing.T) {
	cl := startCluster(t, 2)
	c := pushClient(t, cl)
	old := prime(t, c, "usr/bin/ls", "mnt/bin/ls", "usr/bin/cat", "etc/passwd")
	cat := old["usr/bin/cat"]
	purges, removed := c.Purges(), c.EntriesPurged()

	usrBin := core.ParsePath("usr/bin")
	if err := c.Unbind(usrBin, "ls"); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(usrBin, "ls", cat); err != nil {
		t.Fatal(err)
	}
	// The acks rode the connection the frames did, behind them.
	for _, raw := range []string{"mnt/bin/ls", "usr/bin/ls"} {
		if e, hit := isHit(t, c, raw); hit || e != cat {
			t.Fatalf("%s after the rebind = %v (cache hit: %v), want a miss answering %v", raw, e, hit, cat)
		}
	}
	for _, raw := range []string{"usr/bin/cat", "etc/passwd"} {
		if e, hit := isHit(t, c, raw); !hit || e != old[raw] {
			t.Fatalf("%s after an unrelated rebind = %v (cache hit: %v), want it still cached", raw, e, hit)
		}
	}
	if got := c.Purges() - purges; got != 0 {
		t.Fatalf("%d whole-shard purges for a leaf rebind, want none", got)
	}
	if got := c.EntriesPurged() - removed; got != 2 {
		t.Fatalf("%d entries purged, want exactly the two names of the rebound binding", got)
	}
}

// TestStructuralChangePurgesShard: making a directory, and binding or
// unbinding one, can change what any name under it means; each purges the
// shard's every entry, and leaves the other shard's alone.
func TestStructuralChangePurgesShard(t *testing.T) {
	cl := startCluster(t, 2)
	c := pushClient(t, cl)
	usr := core.ParsePath("usr")
	bin, err := c.Resolve(core.ParsePath("usr/bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		change func() error
	}{
		{"mkcontext", func() error { _, err := c.Mkcontext(usr, "made"); return err }},
		{"bind of a directory", func() error { return c.Bind(usr, "alias", bin) }},
		{"unbind of a directory", func() error { return c.Unbind(usr, "alias") }},
	} {
		prime(t, c, "usr/bin/ls", "usr/bin/cat", "etc/passwd")
		purges := c.Purges()
		if err := tc.change(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := c.Purges() - purges; got != 1 {
			t.Fatalf("%s: %d whole-shard purges, want 1", tc.name, got)
		}
		for _, raw := range []string{"usr/bin/ls", "usr/bin/cat"} {
			if _, hit := isHit(t, c, raw); hit {
				t.Fatalf("%s: %s survived in the cache", tc.name, raw)
			}
		}
		if _, hit := isHit(t, c, "etc/passwd"); !hit {
			t.Fatalf("%s: the other shard's entry was purged too", tc.name)
		}
	}
}

// TestOwnWriteIsNeverReadStale is the ordering invariant end to end: a
// reader that resolves the victim the instant its own Bind returns never
// sees the old target, because the ack came down the connection behind the
// frame, and the frame was applied before the ack was handed over.
func TestOwnWriteIsNeverReadStale(t *testing.T) {
	cl := startCluster(t, 2)
	c := pushClient(t, cl)
	targets := prime(t, c, "usr/bin/ls", "usr/bin/cat")
	pair := [2]core.Entity{targets["usr/bin/ls"], targets["usr/bin/cat"]}
	usrBin, victim := core.ParsePath("usr/bin"), core.ParsePath("usr/bin/victim")
	if err := c.Bind(usrBin, "victim", pair[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if e, err := c.Resolve(victim); err != nil || e != pair[(i-1)%2] { // cached before the write
			t.Fatalf("cycle %d: victim before the write = %v, %v", i, e, err)
		}
		if err := c.Unbind(usrBin, "victim"); err != nil {
			t.Fatal(err)
		}
		if err := c.Bind(usrBin, "victim", pair[i%2]); err != nil {
			t.Fatal(err)
		}
		if e, err := c.Resolve(victim); err != nil || e != pair[i%2] {
			t.Fatalf("cycle %d: victim right after its Bind returned = %v, %v; want %v", i, e, err, pair[i%2])
		}
	}
	if got := c.Purges(); got != 0 {
		t.Fatalf("%d whole-shard purges over 200 leaf rebinds, want none", got)
	}
}

// TestBackupPushesPreciseFramesAfterFailover: a replicated apply goes
// through the backup's own watch hook, so a reader that failed over to the
// backup is told which binding each replicated commit changed, in the
// backup's numbering; and the replicas still agree on one Merkle root.
func TestBackupPushesPreciseFramesAfterFailover(t *testing.T) {
	cl := startReplicated(t, 2, 2)
	reader := pushClient(t, cl)
	shard := cl.Routes().ShardFor(core.ParsePath("usr/bin/ls"))
	prime(t, reader, "usr/bin/ls", "usr/bin/cat")

	cl.Fault(shard, 0).SetMode(faultnet.Reset)
	if _, hit := isHit(t, reader, "usr/bin/ls"); !hit {
		t.Fatal("a cached name needed the wire")
	}
	// Nothing tells a reader whose primary died silently; the next miss
	// finds out, fails over, and the new connection re-bases the shard.
	if _, err := reader.Resolve(core.ParsePath("usr/bin")); err != nil {
		t.Fatalf("resolve with the primary dead: %v", err)
	}
	if reader.Failovers() == 0 {
		t.Fatal("the reader never failed over")
	}
	onBackup := prime(t, reader, "usr/bin/ls", "usr/bin/cat")
	cl.Fault(shard, 0).SetMode(faultnet.Pass)

	writer, err := Dial("tcp", cl.Addrs()[0], fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	cat, err := writer.Resolve(core.ParsePath("usr/bin/cat"))
	if err != nil {
		t.Fatal(err)
	}
	purges, removed, frames := reader.Purges(), reader.EntriesPurged(), reader.Invalidations()
	usrBin := core.ParsePath("usr/bin")
	if err := writer.Unbind(usrBin, "ls"); err != nil {
		t.Fatal(err)
	}
	if err := writer.Bind(usrBin, "ls", cat); err != nil {
		t.Fatal(err)
	}
	cl.DrainReplication()
	waitInvalidations(t, reader, frames+2)

	if e, hit := isHit(t, reader, "usr/bin/ls"); hit || (e != cat && !cl.World.SameReplica(e, cat)) {
		t.Fatalf("usr/bin/ls through the backup = %v (cache hit: %v), want a miss answering a replica of %v", e, hit, cat)
	}
	if e, hit := isHit(t, reader, "usr/bin/cat"); !hit || e != onBackup["usr/bin/cat"] {
		t.Fatalf("usr/bin/cat = %v (cache hit: %v), want it still cached", e, hit)
	}
	if got := reader.Purges() - purges; got != 0 {
		t.Fatalf("%d whole-shard purges for two replicated leaf commits, want none", got)
	}
	if got := reader.EntriesPurged() - removed; got != 1 {
		t.Fatalf("%d entries purged, want exactly usr/bin/ls", got)
	}

	scratch := snapstore.New(cas.NewStore(cas.NewMem()))
	primary, err := cl.ShardRoot(scratch, shard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if backup, err := cl.ShardRoot(scratch, shard, 1); err != nil || backup != primary {
		t.Fatalf("backup root %s (%v) != primary root %s after the drain", backup, err, primary)
	}
}

// ruleClient is a caching client over one shard that never dials — with
// WithPushInvalidation a subscribed one: the rule's methods are driven
// directly, from the one goroutine of the test.
func ruleClient(opts ...ClientOption) (*Client, *subscription) {
	c := NewClient("tcp", &nameserver.RouteInfo{Addrs: []string{"unused:0"}}, append(opts, WithLRU(16))...)
	return c, &subscription{based: true}
}

// response feeds a response's revision to the rule, as Resolve does.
func (c *Client) response(rev uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.noteRevision(0, rev, nil)
}

// TestOlderResponseIsNotAdmitted: the reader consumes the frame for commit
// r+1 before the caller woken for a response at r gets to run. That answer
// goes to its caller, but it neither fills the cache nor purges it nor
// moves the shard's revision back — which used to make the next frame read
// as a gap and purge the shard a second time.
func TestOlderResponseIsNotAdmitted(t *testing.T) {
	c, sub := ruleClient(WithPushInvalidation())
	c.revs[0] = 7
	c.cache.Put("a/keep", cacheEntry{entity: core.Entity{ID: 1}, dir: 5})
	c.pushed(0, sub, nameserver.Invalidation{Rev: 8, Dir: 5, Name: "x"})
	if c.response(7) {
		t.Fatal("a response at revision 7 was admitted after the frame for 8")
	}
	if c.revs[0] != 8 || c.cache.Len() != 1 || c.purges != 0 {
		t.Fatalf("after the older response: revs %d, %d entries, %d purges; want 8, 1, 0", c.revs[0], c.cache.Len(), c.purges)
	}
	c.pushed(0, sub, nameserver.Invalidation{Rev: 9, Dir: 5, Name: "y"})
	if c.revs[0] != 9 || c.cache.Len() != 1 || c.purges != 0 {
		t.Fatalf("after the next frame: revs %d, %d entries, %d purges; want 9, 1, 0 — it read as a gap", c.revs[0], c.cache.Len(), c.purges)
	}
	if !c.response(9) {
		t.Fatal("a response at the current revision was refused")
	}
}

// TestFrameAppliesOnlyAsTheNextCommit: a frame that names its binding is
// taken at its word only at revs+1. A gap means commits nobody described:
// the shard goes. A frame at or below revs is old news and changes nothing.
func TestFrameAppliesOnlyAsTheNextCommit(t *testing.T) {
	c, sub := ruleClient(WithPushInvalidation())
	fill := func() {
		c.cache.Put("d/victim", cacheEntry{entity: core.Entity{ID: 1}, name: "victim", dir: 5})
		c.cache.Put("victim", cacheEntry{entity: core.Entity{ID: 6}, name: "victim", dir: 5}) // dir 5 as the export root
		c.cache.Put("other/victim", cacheEntry{entity: core.Entity{ID: 2}, name: "victim", dir: 6})
		c.cache.Put("d/bystander", cacheEntry{entity: core.Entity{ID: 3}, name: "bystander", dir: 5})
		c.cache.Put("nowhere", cacheEntry{entity: core.Entity{ID: 4}, name: "nowhere"})                           // directory unknown
		c.cache.Put("d/elsewhere", cacheEntry{entity: core.Entity{ID: 5}, name: "elsewhere", dir: 5, replica: 1}) // another replica's numbers
	}
	c.revs[0] = 10
	fill()
	c.pushed(0, sub, nameserver.Invalidation{Rev: 11, Dir: 5, Name: "victim"})
	if c.revs[0] != 11 || c.cache.Len() != 2 || c.purges != 0 {
		t.Fatalf("next commit: revs %d, %d entries, %d whole purges; want 11, 2 (other/victim, d/bystander), 0", c.revs[0], c.cache.Len(), c.purges)
	}
	for _, key := range []string{"other/victim", "d/bystander"} {
		if _, ok := c.cache.Get(key); !ok {
			t.Fatalf("%s was purged by a frame for (5, victim)", key)
		}
	}

	c.pushed(0, sub, nameserver.Invalidation{Rev: 11, Dir: 5, Name: "bystander"})
	c.pushed(0, sub, nameserver.Invalidation{Rev: 3})
	if c.revs[0] != 11 || c.cache.Len() != 2 {
		t.Fatalf("old news: revs %d, %d entries; want 11 and 2 untouched", c.revs[0], c.cache.Len())
	}

	c.pushed(0, sub, nameserver.Invalidation{Rev: 13, Dir: 5, Name: "victim"})
	if c.revs[0] != 13 || c.cache.Len() != 0 || c.purges != 1 {
		t.Fatalf("gap: revs %d, %d entries, %d whole purges; want 13, 0, 1", c.revs[0], c.cache.Len(), c.purges)
	}
	fill()
	c.pushed(0, sub, nameserver.Invalidation{Rev: 14})
	if c.revs[0] != 14 || c.cache.Len() != 0 || c.purges != 2 {
		t.Fatalf("frame naming nothing: revs %d, %d entries, %d whole purges; want 14, 0, 2", c.revs[0], c.cache.Len(), c.purges)
	}
}

// TestEarlyFrameRefusesAnOlderResponse: a new connection is installed, and
// callers use it, before its subscription's ack re-bases the shard. In that
// window the reader consumes the frame for commit 1, and a caller's
// response from before that commit (revision 0) arrives late. The frame
// purged the shard; the response must not put the old value back, or it is
// served as a hit until the re-base although the client has consumed the
// frame that retired it. FuzzCacheRule found this: an early frame that
// leaves revs where it was lets the straggler read as current.
func TestEarlyFrameRefusesAnOlderResponse(t *testing.T) {
	c, _ := ruleClient(WithPushInvalidation())
	sub := &subscription{} // installed, not yet re-based
	c.pushed(0, sub, nameserver.Invalidation{Rev: 1, Dir: 5, Name: "a"})
	if c.response(0) {
		t.Fatal("a response at revision 0 was admitted after the early frame for 1")
	}
	if c.revs[0] != 1 || sub.early != 1 {
		t.Fatalf("after the early frame: revs %d, early %d; want 1, 1", c.revs[0], sub.early)
	}
	c.rebase(0, sub, 0)
	if c.revs[0] != 1 || !c.response(1) {
		t.Fatalf("after the re-base: revs %d, want 1 and a response at 1 admitted", c.revs[0])
	}
}

// TestPollModeAdmitsAStraggler pins what the polling client does with the
// response TestOlderResponseIsNotAdmitted refuses: without a subscription a
// response whose revision differs from the shard's — older included — purges
// the shard, is adopted as the shard's revision (revs moves BACKWARDS) and
// may fill. So a straggler answered before a rebind, delivered after a
// response that already showed the rebind's revision, re-inserts the
// retired binding, and it is served as a hit until the next miss crosses
// the wire: poll mode's bound is "one round-trip", not "never older than
// the newest revision seen". Documented, not fixed here: DESIGN §5c (what
// a response does to the cache, poll mode) and §5a "Out-of-order
// coherence" say where the stricter property holds; ROADMAP item 2 finds
// and pins such holes, item 4 closes them. (The
// deleted nameserver.Client rule refused the straggler; its
// TestRevisionRaceEndToEnd went with it.)
func TestPollModeAdmitsAStraggler(t *testing.T) {
	c, _ := ruleClient()
	c.revs[0] = 8
	c.cache.Put("a/current", cacheEntry{entity: core.Entity{ID: 2}, dir: 5})
	if !c.response(7) {
		t.Fatal("poll mode refused a response older than the shard's revision; the pin is out of date — update DESIGN §5c")
	}
	if c.revs[0] != 7 || c.cache.Len() != 0 || c.purges != 1 {
		t.Fatalf("after the straggler: revs %d, %d entries, %d purges; pinned behaviour is 7, 0, 1", c.revs[0], c.cache.Len(), c.purges)
	}
	// The next response at the newer revision purges again: the price of
	// the backwards step is a second whole-shard purge, not a stuck cache.
	c.cache.Put("a/stale", cacheEntry{entity: core.Entity{ID: 1}, dir: 5})
	if !c.response(8) || c.revs[0] != 8 || c.cache.Len() != 0 || c.purges != 2 {
		t.Fatalf("after catching up: revs %d, %d entries, %d purges; want 8, 0, 2", c.revs[0], c.cache.Len(), c.purges)
	}
}

// lowServer serves tr on loopback with its revision advanced to rev.
func lowServer(t *testing.T, w *core.World, tr *dirtree.Tree, rev uint64) (*nameserver.Server, string) {
	t.Helper()
	srv := nameserver.NewServer(w, tr.RootContext())
	srv.WatchExport(tr.Root)
	srv.SetRevision(rev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// TestNewConnectionRebasesRevision: revs never moves back on a live
// connection, but a new connection is a new history. A client that has
// followed one server to revision 50 and fails over to one at revision 5 (a
// shard restarted from its snapshot looks the same) purges once, restarts
// from the subscription's ack, and caches again — it is not locked out
// until the new server happens to pass 50.
func TestNewConnectionRebasesRevision(t *testing.T) {
	w := core.NewWorld()
	var addrs []string
	var servers []*nameserver.Server
	for _, rev := range []uint64{50, 5} {
		tr := dirtree.New(w, "export")
		if _, err := tr.Create(core.ParsePath("usr/bin/ls"), "#!ls"); err != nil {
			t.Fatal(err)
		}
		srv, addr := lowServer(t, w, tr, rev)
		servers, addrs = append(servers, srv), append(addrs, addr)
	}
	routes := &nameserver.RouteInfo{Addrs: addrs[:1], Replicas: [][]string{addrs}}
	c := NewClient("tcp", routes, fastOpts(WithLRU(16), WithPushInvalidation())...)
	defer c.Close()
	prime(t, c, "usr/bin/ls")
	servers[0].Close()
	if _, hit := isHit(t, c, "usr/bin"); hit { // a miss: finds the primary dead, fails over
		t.Fatal("usr/bin was never resolved, yet hit")
	}
	if c.Failovers() == 0 {
		t.Fatal("the client never failed over")
	}
	c.mu.Lock()
	rev := c.revs[0]
	c.mu.Unlock()
	if rev != 5 {
		t.Fatalf("shard revision after failing over to a server at 5 = %d", rev)
	}
	prime(t, c, "usr/bin/ls") // fails unless the second round hits
}
