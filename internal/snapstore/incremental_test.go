package snapstore

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/nameserver"
)

// incr is a served tree whose flush works the way the cluster's flushes a
// shard: a memo-keeping Encoder fed from the server's commit log under
// Server.Stable, then a manifest commit. Writes reach the tree over the wire (bind, unbind,
// mkcontext, bind-a-directory) and in process (Tree.Attach, Detach, Create,
// a bare Context.Bind); check flushes and holds the committed root to a
// walk of everything into an empty store.
//
// The tree it starts from has what makes remembering blobs delicate:
//
//	n0/            A
//	n0/n0/         B, with n0/n0/up → A: a cycle reference that escapes B
//	n0/n0/f        file F ...
//	n1/f           ... and F again: a hard link
//	n0/n2/ = n1/n2 S: one directory under two parents
//	n1/n3/         D, with n1/n3/self → D: a cycle reference that does not escape
//
// Cycle references need no rule of their own (see Encoder): a remembered
// blob that holds one stays good until a directory is bound or unbound, and
// that is always "everything". The one shape whose restore is not the live
// tree — an escaping reference inside a directory that has two parents,
// which the format re-resolves per access path — is added by sharedEscape.
type incr struct {
	t    *testing.T
	w    *core.World
	tr   *dirtree.Tree
	srv  *nameserver.Server
	c    *nameserver.Client
	st   *Store
	enc  *Encoder
	pos  uint64        // the commit-log position enc's last snapshot covered
	dirs []core.Path   // every directory path ever made; some no longer resolve
	ents []core.Entity // files to bind

	flushes, incremental int // flushes checked; of those, told directories rather than "everything"
	all                  bool
	told                 int
}

func newIncr(t *testing.T, st *Store, sharedEscape bool) *incr {
	t.Helper()
	w := core.NewWorld()
	h := &incr{t: t, w: w, tr: dirtree.New(w, "root"), st: st, dirs: []core.Path{nil}}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mkdir := func(p string) core.Entity {
		e, err := h.tr.MkdirAll(core.ParsePath(p))
		must(err)
		h.dirs = append(h.dirs, core.ParsePath(p))
		return e
	}
	a := mkdir("n0")
	mkdir("n0/n0")
	mkdir("n1")
	s := mkdir("n0/n2")
	d := mkdir("n1/n3")
	f, err := h.tr.Create(core.ParsePath("n0/n0/f"), "F")
	must(err)
	g, err := h.tr.Create(core.ParsePath("n0/n2/g"), "G")
	must(err)
	h.ents = []core.Entity{f, g}
	must(h.tr.Attach(core.ParsePath("n1"), "f", f))
	must(h.tr.Attach(core.ParsePath("n1"), "n2", s))
	h.dirs = append(h.dirs, core.ParsePath("n1/n2"))
	must(h.tr.Attach(core.ParsePath("n0/n0"), "up", a))
	must(h.tr.Attach(core.ParsePath("n1/n3"), "self", d))
	if sharedEscape {
		must(h.tr.Attach(core.ParsePath("n0/n2"), "up", a))
	}

	h.srv = nameserver.NewServer(w, h.tr.RootContext())
	h.srv.WatchExport(h.tr.Root)
	serverEnd, clientEnd := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.srv.ServeConn(serverEnd)
	}()
	h.c = nameserver.NewClient(clientEnd)
	t.Cleanup(func() {
		_ = h.c.Close()
		wg.Wait()
	})

	h.enc = st.NewEncoder(w, h.tr.Root)
	return h
}

// flush commits the tree at the server's revision unless the manifest
// already names that revision: the encoder is told what the commit log
// says changed since its last good snapshot.
func (h *incr) flush() error {
	if last, ok := h.st.Latest(0); ok && last.Rev == h.srv.Revision() {
		return nil
	}
	var root cas.Hash
	var rev uint64
	var err error
	h.srv.Stable(func() {
		rev = h.srv.Revision()
		dirs, head, all := h.srv.ChangedSince(h.pos)
		h.all, h.told = all, len(dirs)
		if root, err = h.enc.Snapshot(dirs, all); err == nil {
			h.pos = head
		}
	})
	if err != nil {
		return err
	}
	return h.st.Commit(0, rev, root)
}

// apply decodes one operation. Most fail now and then — a name already
// bound, a directory that no longer resolves — and that is fine: a refused
// write changed nothing.
func (h *incr) apply(op, a, b byte) {
	dir := h.dirs[int(a)%len(h.dirs)]
	name := core.Name(fmt.Sprintf("n%d", b%6))
	switch op % 10 {
	case 0, 1: // wire bind of a file: a hard link when it is bound elsewhere too
		_, _ = h.c.Bind(dir, name, h.ents[int(b/6)%len(h.ents)])
	case 2: // wire unbind of whatever the name holds, a directory included
		_, _ = h.c.Unbind(dir, name)
	case 3:
		if _, _, err := h.c.Mkcontext(dir, name); err == nil {
			h.dirs = append(h.dirs, dir.Append(name))
		}
	case 4: // wire bind of an existing directory: a second parent, or a link back up
		if e, err := h.tr.Lookup(h.dirs[int(b/6)%len(h.dirs)]); err == nil && len(h.dirs) < 24 {
			if _, err := h.c.Bind(dir, name, e); err == nil {
				h.dirs = append(h.dirs, dir.Append(name))
			}
		}
	case 5: // in process: a new file
		if e, err := h.tr.Create(dir.Append(name), fmt.Sprintf("content-%d", b)); err == nil {
			h.ents = append(h.ents, e)
		}
	case 6: // in process: attach another tree
		sub := dirtree.New(h.w, "sub")
		if _, err := sub.Create(core.ParsePath("leaf"), "attached"); err != nil {
			h.t.Fatal(err)
		}
		if len(h.dirs) < 24 && h.tr.Attach(dir, name, sub.Root) == nil {
			h.dirs = append(h.dirs, dir.Append(name))
		}
	case 7: // in process: detach
		_ = h.tr.Detach(dir, name)
	case 8: // in process: a bare bind over whatever is there, no unbind first
		if e, err := h.tr.Lookup(dir); err == nil {
			if ctx, ok := h.w.ContextOf(e); ok {
				ctx.Bind(name, h.ents[int(b/6)%len(h.ents)])
			}
		}
	case 9:
		h.check()
	}
}

// names lists what tr resolves down to depth components, links followed like
// any other binding, each name with what it denotes.
func names(tr *dirtree.Tree, depth int) map[string]string {
	out := map[string]string{}
	var rec func(p core.Path, e core.Entity)
	rec = func(p core.Path, e core.Entity) {
		ctx, ok := tr.W.ContextOf(e)
		if !ok || len(p) == depth {
			return
		}
		for _, n := range ctx.Names() {
			child := ctx.Lookup(n)
			what := "dir"
			if data, ok := tr.W.State(child).(*dirtree.FileData); ok {
				what = "file:" + data.Content
			} else if !tr.W.IsContextObject(child) {
				what = "opaque"
			}
			out[p.Append(n).String()] = what
			rec(p.Append(n), child)
		}
	}
	rec(nil, tr.Root)
	return out
}

// check flushes and holds what it committed to the reference: the root a
// stateless Snapshot of the live tree into an empty store gives, at the
// server's revision, restorable from the flushed store — every
// blob the memo vouched for is really there — to the tree the reference
// restores. It reports whether that tree resolves every name the live one
// does (always, but for sharedEscape's shape and what the writes make of it).
func (h *incr) check() (faithful bool) {
	h.t.Helper()
	h.all, h.told = false, 0 // a flush at an unmoved revision asks nothing
	if err := h.flush(); err != nil {
		h.t.Fatalf("flush: %v", err)
	}
	h.flushes++
	if !h.all && h.told > 0 {
		h.incremental++
	}
	ref := newMemStore()
	want, err := ref.Snapshot(h.w, h.tr.Root)
	if err != nil {
		h.t.Fatal(err)
	}
	last, ok := h.st.Latest(0)
	if !ok || last.Root != want.String() {
		h.t.Fatalf("flush %d (everything=%v, %d directories) committed %+v; a walk of everything gives %s", h.flushes, h.all, h.told, last, want)
	}
	if rev := h.srv.Revision(); last.Rev != rev {
		h.t.Fatalf("flush %d committed revision %d, the server is at %d", h.flushes, last.Rev, rev)
	}
	refTree, refErr := ref.Restore(want, core.NewWorld(), "root")
	got, err := h.st.Restore(want, core.NewWorld(), "root")
	if (err == nil) != (refErr == nil) {
		h.t.Fatalf("flush %d: restore from the flushed store: %v; from the reference store: %v", h.flushes, err, refErr)
	}
	if refErr != nil {
		// TestDeepEscapeUnderAShorterPathIsUnrestorable: the format's hole, not the flush's.
		return false
	}
	wantNames := names(refTree, 4)
	requireSameSignature(h.t, wantNames, names(got, 4))
	live := names(h.tr, 4)
	if len(live) != len(wantNames) {
		return false
	}
	for n, what := range live {
		if wantNames[n] != what {
			return false
		}
	}
	return true
}

// TestDeepEscapeUnderAShorterPathIsUnrestorable documents a hole in the
// snapshot format that FuzzIncrementalSnapshot ran into, and that a walk of
// everything has as much as an incremental one: a directory the walk first meets
// deep (root/a/b/s) encodes its link to a far ancestor as "3 up", the blob is
// remembered, and a second, shorter path to the same directory (root/z)
// names that blob too — where "3 up" points above the root. Snapshot
// succeeds; Restore of its own root refuses. Until the format carries the
// escape height of a shared blob (or encodes the second occurrence afresh),
// a flush commits such a root like any other.
func TestDeepEscapeUnderAShorterPathIsUnrestorable(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	s, err := tr.MkdirAll(core.ParsePath("a/b/s"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(core.ParsePath("a/b/s"), "top", tr.Root); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(nil, "z", s); err != nil {
		t.Fatal(err)
	}
	st := newMemStore()
	root, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(root, core.NewWorld(), "root"); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("restore = %v; if the format learned to restore this shape, delete this test and the branch of incr.check that cites it", err)
	}
}

// TestIncrementalSnapshotEqualsFullWalk: over seeded random write sequences
// the committed root is the stateless Snapshot's after every flush.
func TestIncrementalSnapshotEqualsFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, sharedEscape := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/sharedEscape=%v", seed, sharedEscape), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := newIncr(t, newMemStore(), sharedEscape)
				if faithful := h.check(); faithful == sharedEscape {
					t.Fatalf("restore of the starting tree resolves what the live tree does: %v, want %v", faithful, !sharedEscape)
				}
				for step := 0; step < 400; step++ {
					h.apply(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				}
				h.check()
				if h.incremental < 5 || h.incremental == h.flushes {
					t.Fatalf("%d of %d flushes were told directories: the sequence must exercise both paths", h.incremental, h.flushes)
				}
			})
		}
	}
}

// FuzzIncrementalSnapshot decodes its input three bytes an operation (see
// apply) and checks after the last one, and wherever the input says.
func FuzzIncrementalSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 1, 9, 0, 0, 0, 2, 2, 9, 0, 0})                      // create in n0/n0, flush, hard-link F into n0/n0, flush
	f.Add([]byte{0, 4, 3, 9, 0, 0, 2, 4, 3, 0, 5, 3, 9, 0, 0})             // rebind inside the two-parent directory and in D
	f.Add([]byte{3, 1, 4, 0, 6, 1, 9, 0, 0, 2, 1, 4, 9, 0, 0})             // mkcontext, bind inside it, flush, unbind the directory
	f.Add([]byte{4, 2, 1, 9, 0, 0, 8, 2, 1, 9, 0, 0, 6, 3, 5, 7, 3, 5})    // link B → A's sibling, overwrite it with a file, attach, detach
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 2, 9, 0, 0, 2, 1, 0, 8, 1, 1, 9}) // several writes to one directory between flushes
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			t.Skip()
		}
		h := newIncr(t, newMemStore(), len(data)%2 == 1)
		for ; len(data) >= 3; data = data[3:] {
			h.apply(data[0], data[1], data[2])
		}
		h.check()
	})
}

// durableIncr is newIncr over a store on disk, flushed once, with one file
// created afterwards so the next flush has blobs to write.
func durableIncr(t *testing.T) (*incr, ManifestEntry) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := newIncr(t, st, false)
	h.check()
	old, _ := st.Latest(0)
	if _, err := h.tr.Create(core.ParsePath("n0/n0/new"), "unfinished"); err != nil {
		t.Fatal(err)
	}
	return h, old
}

// TestFailedPutLeavesTheNextFlushCorrect: the Nth new blob of a flush dies
// in the backend. The flush reports it, the manifest still names the old
// root, and the next flush — which also has a later write to pick up —
// commits exactly what a walk of everything does.
func TestFailedPutLeavesTheNextFlushCorrect(t *testing.T) {
	for nth := 1; nth <= 4; nth++ { // the file, B, A, the root
		t.Run(fmt.Sprint("put", nth), func(t *testing.T) {
			h, old := durableIncr(t)
			local := h.st.CAS().Backend().(*cas.Local)
			crash := errors.New("simulated crash")
			n := 0
			local.PutHook = func(cas.Hash, string) error {
				if n++; n == nth {
					return crash
				}
				return nil
			}
			if err := h.flush(); !errors.Is(err, crash) {
				t.Fatalf("flush through a backend that fails put %d = %v, want the crash", nth, err)
			}
			local.PutHook = nil
			if last, _ := h.st.Latest(0); last != old {
				t.Fatalf("manifest after the failed flush names %+v, want the old %+v", last, old)
			}
			if _, err := h.c.Bind(core.ParsePath("n1/n3"), "later", h.ents[0]); err != nil {
				t.Fatal(err)
			}
			h.check()
			if h.all {
				t.Fatal("the retry walked everything: a failed put must not cost the memo")
			}
		})
	}
}

// TestFailedManifestCommitLeavesTheNextFlushCorrect: every blob is stored,
// then the manifest cannot be replaced. Same contract.
func TestFailedManifestCommitLeavesTheNextFlushCorrect(t *testing.T) {
	h, old := durableIncr(t)
	// A non-empty directory where the manifest goes: the rename fails.
	man := filepath.Join(h.st.dir, manifestName)
	if err := os.Remove(man); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(man, "in-the-way"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := h.flush(); err == nil {
		t.Fatal("flush committed through a manifest that cannot be replaced")
	}
	if last, _ := h.st.Latest(0); last != old {
		t.Fatalf("manifest after the failed commit names %+v, want the old %+v", last, old)
	}
	if err := os.RemoveAll(man); err != nil {
		t.Fatal(err)
	}
	puts := h.st.CAS().Stats().Puts
	h.check()
	if got := h.st.CAS().Stats().Puts - puts; got != 0 {
		t.Fatalf("the retry re-encoded %d nodes: the failed commit's encode had stored them all", got)
	}
	st2, err := Open(h.st.dir)
	if err != nil {
		t.Fatal(err)
	}
	if last, _ := st2.Latest(0); last.Rev != h.srv.Revision() {
		t.Fatalf("reopened manifest names %+v, the server is at %d", last, h.srv.Revision())
	}
}

// TestManifestHistoryIsBounded: a thousand commits leave each shard's newest
// manifestKeep entries, so what Commit rewrites and fsyncs stays a few
// kilobytes however long the daemon runs.
func TestManifestHistoryIsBounded(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for rev := uint64(1); rev <= 1000; rev++ {
		if err := st.Commit(int(rev%2), rev, cas.Sum([]byte{byte(rev), byte(rev >> 8)})); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if max := int64(2 * manifestKeep * 160); info.Size() > max {
		t.Fatalf("%s is %d bytes after 1000 commits, want at most %d", manifestName, info.Size(), max)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st2.man.History); n != 2*manifestKeep {
		t.Fatalf("history holds %d entries, want %d for each of 2 shards", n, manifestKeep)
	}
	for shard, want := range []uint64{1000, 999} {
		if last, ok := st2.Latest(shard); !ok || last.Rev != want {
			t.Fatalf("Latest(%d) = %+v, %v; want revision %d", shard, last, ok, want)
		}
	}
	if first := st2.man.History[0]; first.Rev != 1000-2*manifestKeep+1 {
		t.Fatalf("oldest entry kept is %+v, want revision %d", first, 1000-2*manifestKeep+1)
	}
}
