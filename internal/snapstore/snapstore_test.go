package snapstore

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// newMemStore returns a Store over a fresh in-memory CAS.
func newMemStore() *Store {
	return New(cas.NewStore(cas.NewMem()))
}

// buildSample populates tr with a small mixed tree.
func buildSample(t *testing.T, tr *dirtree.Tree) {
	t.Helper()
	mustCreate := func(p string, content string, embedded ...core.Path) {
		t.Helper()
		if _, err := tr.Create(core.ParsePath(p), content, embedded...); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("etc/hosts", "localhost")
	mustCreate("etc/conf/db", "port=5432", core.ParsePath("var/data"))
	mustCreate("usr/bin/sh", "#!")
	if _, err := tr.MkdirAll(core.ParsePath("var/data")); err != nil {
		t.Fatal(err)
	}
}

// signature flattens a tree to path → descriptor for structural
// comparison. Unlike Walk, it enumerates paths rather than entities:
// restored worlds share hash-identical subtrees as one entity bound at
// several paths, and every such path must still carry the right
// structure. Parent links and entities already on the current access
// path are skipped so cycles terminate.
func signature(t *testing.T, tr *dirtree.Tree) map[string]string {
	t.Helper()
	out := map[string]string{}
	describe := func(e core.Entity) string {
		if data, ok := tr.W.State(e).(*dirtree.FileData); ok {
			var emb string
			for _, ep := range data.Embedded {
				emb += "|" + ep.String()
			}
			return "file:" + data.Content + emb
		}
		if tr.W.IsContextObject(e) {
			return "dir"
		}
		return fmt.Sprintf("opaque:%d:%s", e.Kind, tr.W.Label(e))
	}
	onPath := map[core.EntityID]bool{tr.Root.ID: true}
	var rec func(p core.Path, e core.Entity)
	rec = func(p core.Path, e core.Entity) {
		c, ok := tr.W.ContextOf(e)
		if !ok {
			return
		}
		for _, n := range c.Names() {
			if n == dirtree.ParentName {
				continue
			}
			child := c.Lookup(n)
			if child.IsUndefined() || onPath[child.ID] {
				continue
			}
			cp := p.Append(n)
			out[cp.String()] = describe(child)
			onPath[child.ID] = true
			rec(cp, child)
			delete(onPath, child.ID)
		}
	}
	rec(nil, tr.Root)
	return out
}

func requireSameSignature(t *testing.T, want, got map[string]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("signature size differs: want %d, got %d\nwant=%v\ngot=%v",
			len(want), len(got), want, got)
	}
	for p, w := range want {
		if got[p] != w {
			t.Fatalf("at %q: want %q, got %q", p, w, got[p])
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	buildSample(t, tr)

	st := newMemStore()
	root, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld()
	tr2, err := st.Restore(root, w2, "root")
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, signature(t, tr), signature(t, tr2))

	// Restored entities take their labels from the binding that names them.
	e, err := tr2.Lookup(core.ParsePath("etc/hosts"))
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Label(e); got != "hosts" {
		t.Fatalf("restored label = %q, want %q", got, "hosts")
	}
	if got := w2.Label(tr2.Root); got != "root" {
		t.Fatalf("restored root label = %q, want %q", got, "root")
	}
}

// Two replicas of the same structure hash identically no matter what
// their entities are labelled or in which order bindings were made —
// content addressing makes weak coherence structural.
func TestReplicasProduceSameRootHash(t *testing.T) {
	st := newMemStore()

	build := func(label string, reversed bool) (cas.Hash, error) {
		w := core.NewWorld()
		tr := dirtree.New(w, label)
		names := []string{"alpha", "beta", "gamma"}
		if reversed {
			for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
				names[i], names[j] = names[j], names[i]
			}
		}
		for _, n := range names {
			if _, err := tr.Create(core.ParsePath("dir/"+n), "payload-"+n); err != nil {
				return cas.Hash{}, err
			}
		}
		return st.Snapshot(w, tr.Root)
	}

	h1, err := build("shard0-r0", false)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := build("shard0-r1", true)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("replica root hashes differ: %s vs %s", h1, h2)
	}
	if ratio := st.CAS().Stats().DedupRatio(); ratio <= 1 {
		t.Fatalf("dedup ratio = %v, want > 1 after snapshotting a replica", ratio)
	}
}

// Parent links (".." cycles) survive the round trip: the restored child's
// ".." binding resolves to the restored parent.
func TestParentLinkCycleRoundTrip(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.NewWithParentLinks(w, "root")
	if _, err := tr.MkdirAll(core.ParsePath("a/b")); err != nil {
		t.Fatal(err)
	}

	st := newMemStore()
	root, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld()
	tr2, err := st.Restore(root, w2, "root")
	if err != nil {
		t.Fatal(err)
	}
	a, err := tr2.Lookup(core.ParsePath("a"))
	if err != nil {
		t.Fatal(err)
	}
	up, err := tr2.Lookup(core.ParsePath("a/b/.."))
	if err != nil {
		t.Fatal(err)
	}
	if up != a {
		t.Fatalf("a/b/.. = %v, want the restored a = %v", up, a)
	}
	self, err := tr2.Lookup(core.ParsePath(".."))
	if err != nil {
		t.Fatal(err)
	}
	if self != tr2.Root {
		t.Fatalf("root/.. = %v, want the restored root", self)
	}
}

// Subtrees whose cycle references escape them are relative names: two
// hash-identical children under different parents must each resolve
// their ".." against their own parent, not a shared instance.
func TestEscapingSubtreesReinstantiated(t *testing.T) {
	w := core.NewWorld()
	root, rootCtx := w.NewContextObject("root")
	mkParent := func(name, marker string) core.Entity {
		parent, parentCtx := w.NewContextObject(name)
		rootCtx.Bind(core.Name(name), parent)
		sub, subCtx := w.NewContextObject("sub")
		parentCtx.Bind("sub", sub)
		subCtx.Bind(dirtree.ParentName, parent)
		f := w.NewObject("f")
		if err := w.SetState(f, &dirtree.FileData{Content: "shared"}); err != nil {
			t.Fatal(err)
		}
		subCtx.Bind("f", f)
		m := w.NewObject("m")
		if err := w.SetState(m, &dirtree.FileData{Content: marker}); err != nil {
			t.Fatal(err)
		}
		parentCtx.Bind("marker", m)
		return parent
	}
	mkParent("a", "A")
	mkParent("b", "B")

	st := newMemStore()
	rootHash, err := st.Snapshot(w, root)
	if err != nil {
		t.Fatal(err)
	}

	w2 := core.NewWorld()
	tr2, err := st.Restore(rootHash, w2, "root")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tr2.Lookup(core.ParsePath("a"))
	b, _ := tr2.Lookup(core.ParsePath("b"))
	if a == b {
		t.Fatal("distinct parents restored as one entity")
	}
	aUp, err := tr2.Lookup(core.ParsePath("a/sub/.."))
	if err != nil {
		t.Fatal(err)
	}
	bUp, err := tr2.Lookup(core.ParsePath("b/sub/.."))
	if err != nil {
		t.Fatal(err)
	}
	if aUp != a || bUp != b {
		t.Fatalf("escaping cycle resolved against wrong parent: a/sub/..=%v (a=%v), b/sub/..=%v (b=%v)",
			aUp, a, bUp, b)
	}
}

// Opaque entities (activities, foreign-state objects) keep identity, kind
// and label across the round trip.
func TestOpaqueLeavesRoundTrip(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	act := w.NewActivity("worker-1")
	if err := tr.Attach(nil, "svc", act); err != nil {
		t.Fatal(err)
	}

	st := newMemStore()
	root, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld()
	tr2, err := st.Restore(root, w2, "root")
	if err != nil {
		t.Fatal(err)
	}
	e, err := tr2.Lookup(core.ParsePath("svc"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != core.KindActivity {
		t.Fatalf("restored kind = %v, want activity", e.Kind)
	}
	if got := w2.Label(e); got != "worker-1" {
		t.Fatalf("restored opaque label = %q, want %q", got, "worker-1")
	}
}

// Activities that carry a context of their own round-trip as directories.
func TestActivityContextRoundTrip(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	act := w.NewActivity("job")
	ctx := core.NewContext()
	if err := w.SetState(act, ctx); err != nil {
		t.Fatal(err)
	}
	f := w.NewObject("out")
	if err := w.SetState(f, &dirtree.FileData{Content: "result"}); err != nil {
		t.Fatal(err)
	}
	ctx.Bind("out", f)
	if err := tr.Attach(nil, "job", act); err != nil {
		t.Fatal(err)
	}

	st := newMemStore()
	root, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld()
	tr2, err := st.Restore(root, w2, "root")
	if err != nil {
		t.Fatal(err)
	}
	e, err := tr2.Lookup(core.ParsePath("job"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != core.KindActivity {
		t.Fatalf("restored kind = %v, want activity", e.Kind)
	}
	data, err := tr2.FileAt(core.ParsePath("job/out"))
	if err != nil {
		t.Fatal(err)
	}
	if data.Content != "result" {
		t.Fatalf("restored activity context content = %q", data.Content)
	}
}

func TestDiffReportsChangedFrontierOnly(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	buildSample(t, tr)

	st := newMemStore()
	before, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}

	if changes, err := st.Diff(before, before); err != nil || len(changes) != 0 {
		t.Fatalf("self-diff = %v, %v; want empty", changes, err)
	}

	// One edit deep in the tree; one addition elsewhere.
	e, err := tr.Lookup(core.ParsePath("etc/conf/db"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetState(e, &dirtree.FileData{Content: "port=5433"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("var/log"), "boot"); err != nil {
		t.Fatal(err)
	}
	after, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}

	changes, err := st.Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Change{}
	for _, c := range changes {
		got[c.Path.String()] = c
	}
	if len(got) != 2 {
		t.Fatalf("changes = %v, want exactly {etc/conf/db, var/log}", got)
	}
	edit, ok := got["etc/conf/db"]
	if !ok || edit.Old.IsZero() || edit.New.IsZero() {
		t.Fatalf("edit change = %+v, want both sides set", edit)
	}
	add, ok := got["var/log"]
	if !ok || !add.Old.IsZero() || add.New.IsZero() {
		t.Fatalf("add change = %+v, want only New set", add)
	}
}

func TestCatchUpCopiesOnlyMissingSubtrees(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	buildSample(t, tr)

	st := newMemStore()
	v1, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}

	replica := cas.NewMem()
	copied1, pruned1, err := st.CatchUp(replica, v1)
	if err != nil {
		t.Fatal(err)
	}
	if pruned1 != 0 {
		t.Fatalf("first catch-up pruned %d, want 0", pruned1)
	}
	held := 0
	if err := replica.List(func(cas.Hash) error { held++; return nil }); err != nil {
		t.Fatal(err)
	}
	if copied1 != held {
		t.Fatalf("copied %d but replica holds %d", copied1, held)
	}

	// The replica can restore from its own blobs alone.
	w2 := core.NewWorld()
	tr2, err := New(cas.NewStore(replica)).Restore(v1, w2, "root")
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, signature(t, tr), signature(t, tr2))

	// A caught-up replica re-fetches nothing.
	if copied, pruned, err := st.CatchUp(replica, v1); err != nil || copied != 0 || pruned != 1 {
		t.Fatalf("repeat catch-up = (%d copied, %d pruned, %v), want (0, 1, nil)", copied, pruned, err)
	}

	// One edit: only the changed spine travels.
	if _, err := tr.Create(core.ParsePath("etc/motd"), "hello"); err != nil {
		t.Fatal(err)
	}
	v2, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	copied2, pruned2, err := st.CatchUp(replica, v2)
	if err != nil {
		t.Fatal(err)
	}
	// Changed: new file blob, etc dir, root dir. Everything else prunes.
	if copied2 >= copied1 {
		t.Fatalf("incremental catch-up copied %d, want fewer than the initial %d", copied2, copied1)
	}
	if pruned2 == 0 {
		t.Fatal("incremental catch-up pruned nothing")
	}
	w3 := core.NewWorld()
	tr3, err := New(cas.NewStore(replica)).Restore(v2, w3, "root")
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, signature(t, tr), signature(t, tr3))
}

// A node blob cut short anywhere is refused as ErrTruncated, never decoded
// into a smaller node: the reader's first framing error sticks.
func TestDecodeNodeRejectsTruncated(t *testing.T) {
	nodes := map[string]*Node{
		"dir": {Kind: KindDir, EntityKind: core.KindObject, Entries: []Entry{
			{Name: "up", Ref: Ref{IsCycle: true, Cycle: 1}},
			{Name: "leaf", Ref: Ref{Hash: cas.Sum([]byte("leaf"))}},
		}},
		"file":   {Kind: KindFile, Content: "body", Embedded: []core.Path{core.ParsePath("lib/x"), core.PathOf("y")}},
		"opaque": {Kind: KindOpaque, EntityKind: core.KindActivity, Label: "proc"},
	}
	for name, n := range nodes {
		blob := n.Encode()
		if _, err := DecodeNode(blob); err != nil {
			t.Fatalf("%s: whole blob: %v", name, err)
		}
		for cut := 0; cut < len(blob); cut++ {
			if _, err := DecodeNode(blob[:cut]); !errors.Is(err, ErrTruncated) {
				t.Errorf("%s cut at %d of %d: err = %v, want ErrTruncated", name, cut, len(blob), err)
			}
		}
	}
}

func TestManifestCommitLatestHistory(t *testing.T) {
	st := newMemStore()
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	buildSample(t, tr)
	root, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := st.Latest(0); ok {
		t.Fatal("Latest on empty manifest reported an entry")
	}
	if err := st.Commit(0, 1, root); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(0, 1, root); err != nil { // idempotent re-commit
		t.Fatal(err)
	}
	if err := st.Commit(1, 4, root); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(0, 2, root); err != nil {
		t.Fatal(err)
	}

	last, ok := st.Latest(0)
	if !ok || last.Rev != 2 || last.Root != root.String() {
		t.Fatalf("Latest(0) = %+v, %v", last, ok)
	}
	// The re-commit added nothing: revisions 1, 4, 2 in commit order.
	hist := st.man.History
	if len(hist) != 3 || hist[0].Rev != 1 || hist[1].Rev != 4 || hist[2].Rev != 2 {
		t.Fatalf("history = %+v, want revisions [1 4 2]", hist)
	}
	if h, err := last.RootHash(); err != nil || h != root {
		t.Fatalf("RootHash = %v, %v", h, err)
	}
}

func TestDurableStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	buildSample(t, tr)
	root, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(0, 7, root); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	last, ok := st2.Latest(0)
	if !ok || last.Rev != 7 {
		t.Fatalf("reopened Latest(0) = %+v, %v", last, ok)
	}
	h, err := last.RootHash()
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld()
	tr2, err := st2.Restore(h, w2, "root")
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, signature(t, tr), signature(t, tr2))
}

func TestRestoreMissingBlobIsBadSnapshot(t *testing.T) {
	st := newMemStore()
	var missing cas.Hash
	missing[0] = 0xAB
	if _, err := st.Restore(missing, core.NewWorld(), "root"); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("restore of missing root = %v, want ErrBadSnapshot", err)
	}
}

func TestKeeperFlushAndClose(t *testing.T) {
	st := newMemStore()
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	buildSample(t, tr)

	var rev uint64 = 1
	snaps := 0
	k := NewKeeper(st, 0) // periodic loop disabled; Flush drives it
	k.Track(0, func() uint64 { return rev }, func() (cas.Hash, uint64, error) {
		snaps++
		h, err := st.Snapshot(w, tr.Root)
		return h, rev, err
	})

	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	if snaps != 1 {
		t.Fatalf("snaps = %d after first flush, want 1", snaps)
	}
	if last, ok := st.Latest(0); !ok || last.Rev != 1 {
		t.Fatalf("Latest(0) = %+v, %v", last, ok)
	}

	// Unchanged revision: flush is a no-op.
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	if snaps != 1 {
		t.Fatalf("snaps = %d after idle flush, want 1", snaps)
	}

	// Changed revision: Close takes the final snapshot.
	if _, err := tr.Create(core.ParsePath("var/final"), "bye"); err != nil {
		t.Fatal(err)
	}
	rev = 2
	k.Start()
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps != 2 {
		t.Fatalf("snaps = %d after close, want 2", snaps)
	}
	if last, ok := st.Latest(0); !ok || last.Rev != 2 {
		t.Fatalf("Latest(0) after close = %+v, %v", last, ok)
	}
	if err := k.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if snaps != 2 {
		t.Fatalf("second Close snapshotted again: snaps = %d", snaps)
	}
}

// Flush is callable beside the periodic loop: the two serialise inside the
// keeper, so a shard's last-committed revision is never read and written at
// once (run under -race) and no revision is committed out of order.
func TestKeeperFlushBesidePeriodicLoop(t *testing.T) {
	st := newMemStore()
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	buildSample(t, tr)

	var rev atomic.Uint64
	rev.Store(1)
	k := NewKeeper(st, time.Millisecond)
	k.Track(0, rev.Load, func() (cas.Hash, uint64, error) {
		at := rev.Load()
		h, err := st.Snapshot(w, tr.Root)
		return h, at, err
	})
	k.Start()
	for i := 0; i < 200; i++ {
		rev.Add(1)
		if err := k.Flush(); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			time.Sleep(2 * time.Millisecond) // let the loop's tick land between flushes
		}
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if last, ok := st.Latest(0); !ok || last.Rev != rev.Load() {
		t.Fatalf("Latest(0) = %+v, %v; want revision %d", last, ok, rev.Load())
	}
}

// A keeper tracking a shard whose manifest already names the current
// revision (the restart path) starts caught-up.
func TestKeeperStartsCaughtUpAfterRecovery(t *testing.T) {
	st := newMemStore()
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	buildSample(t, tr)
	root, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(0, 3, root); err != nil {
		t.Fatal(err)
	}

	snaps := 0
	k := NewKeeper(st, 0)
	k.Track(0, func() uint64 { return 3 }, func() (cas.Hash, uint64, error) {
		snaps++
		h, err := st.Snapshot(w, tr.Root)
		return h, 3, err
	})
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	if snaps != 0 {
		t.Fatalf("keeper re-snapshotted a recovered shard %d times", snaps)
	}
}
