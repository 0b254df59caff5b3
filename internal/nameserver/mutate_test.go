package nameserver

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// TestSetRevisionMonotonic is the regression for the recovery-time
// revision rewind: SetRevision used to assign unconditionally, so a
// recovery racing live bumps could move the revision backwards past what
// surviving clients had already observed.
func TestSetRevisionMonotonic(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	for i := 0; i < 5; i++ {
		s.Bump()
	}
	s.SetRevision(3) // a stale snapshot's revision arriving late
	if got := s.Revision(); got != 5 {
		t.Fatalf("Revision = %d after SetRevision(3) over 5, want 5 (monotonic)", got)
	}
	s.SetRevision(9)
	if got := s.Revision(); got != 9 {
		t.Fatalf("Revision = %d after SetRevision(9), want 9", got)
	}

	// Interleave recovery-style SetRevision with concurrent Bumps: the
	// final revision must be at least the bump count plus the recovery
	// floor, and must never have rewound below a value already returned.
	var wg sync.WaitGroup
	const bumps = 100
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < bumps; i++ {
			s.Bump()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < bumps; i++ {
			s.SetRevision(9) // the recovered revision, re-asserted
		}
	}()
	wg.Wait()
	if got := s.Revision(); got != 9+bumps {
		t.Fatalf("Revision = %d after %d bumps over 9, want %d (a SetRevision swallowed bumps)",
			got, bumps, 9+bumps)
	}
}

// TestWireMutations drives bind/unbind/mkcontext over the wire and checks
// both the happy paths and the refusals.
func TestWireMutations(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	c := pipeClient(t, s)

	// Bind the existing file under a second name.
	rev, err := c.Bind(core.ParsePath("usr/bin"), "ls2", f)
	if err != nil {
		t.Fatal(err)
	}
	if rev == 0 {
		t.Fatal("bind committed at revision 0: mutation did not reach a Bump")
	}
	if got, err := c.Resolve(core.ParsePath("usr/bin/ls2")); err != nil || got != f {
		t.Fatalf("resolve after bind = %v, %v", got, err)
	}

	// Mkcontext, then bind inside the fresh directory.
	dir, mkRev, err := c.Mkcontext(core.ParsePath("usr"), "local")
	if err != nil {
		t.Fatal(err)
	}
	if dir.IsUndefined() || mkRev <= rev {
		t.Fatalf("mkcontext = %v at rev %d (previous %d)", dir, mkRev, rev)
	}
	if _, err := c.Bind(core.ParsePath("usr/local"), "ls3", f); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Resolve(core.ParsePath("usr/local/ls3")); err != nil || got != f {
		t.Fatalf("resolve in fresh context = %v, %v", got, err)
	}

	// Unbind and confirm the name is gone.
	if _, err := c.Unbind(core.ParsePath("usr/bin"), "ls2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(core.ParsePath("usr/bin/ls2")); err == nil {
		t.Fatal("resolve after unbind succeeded")
	}

	// Refusals: each must be a RemoteError and change nothing.
	var re *RemoteError
	if _, err := c.Bind(core.ParsePath("usr/bin"), "ls", f); !errors.As(err, &re) {
		t.Fatalf("bind over existing name: err = %v, want RemoteError", err)
	}
	if _, err := c.Unbind(core.ParsePath("usr/bin"), "nope"); !errors.As(err, &re) {
		t.Fatalf("unbind missing name: err = %v, want RemoteError", err)
	}
	if _, _, err := c.Mkcontext(core.ParsePath("usr"), "bin"); !errors.As(err, &re) {
		t.Fatalf("mkcontext over existing name: err = %v, want RemoteError", err)
	}
	if _, err := c.Bind(core.ParsePath("usr/bin"), "ghost", core.Entity{ID: 99999, Kind: core.KindObject}); !errors.As(err, &re) {
		t.Fatalf("bind unknown target: err = %v, want RemoteError", err)
	}
	if _, err := c.Bind(core.ParsePath("usr/bin"), "a/b", f); !errors.Is(err, ErrNotCanonical) {
		t.Fatalf("bind non-canonical name: err = %v, want ErrNotCanonical", err)
	}
}

// TestReadOnlyServer checks that WithReadOnly refuses mutations cleanly
// while resolution keeps working.
func TestReadOnlyServer(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext(), WithReadOnly())
	s.WatchExport(tr.Root)
	c := pipeClient(t, s)

	var re *RemoteError
	if _, err := c.Bind(core.ParsePath("usr/bin"), "ls2", f); !errors.As(err, &re) ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("bind on read-only server: err = %v", err)
	}
	if got, err := c.Resolve(core.ParsePath("usr/bin/ls")); err != nil || got != f {
		t.Fatalf("resolve on read-only server = %v, %v", got, err)
	}
}

// TestMkcontextAutoWatch is the regression for the WatchExport hole:
// directories created after watch time were unwatched, so a bind inside a
// freshly made context mutated the graph without a revision bump and
// revision-tracked caches went silently stale.
func TestMkcontextAutoWatch(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	c := pipeClient(t, s)
	pushed := make(chan uint64, 16)
	if err := c.Subscribe(func(rev uint64) { pushed <- rev }); err != nil {
		t.Fatal(err)
	}

	dir, _, err := c.Mkcontext(core.ParsePath("usr"), "fresh")
	if err != nil {
		t.Fatal(err)
	}
	ctx, ok := w.ContextOf(dir)
	if !ok {
		t.Fatal("created entity is not a context")
	}

	// Mutate the fresh directory directly through the world — the path a
	// server-local writer takes, where only the watch can bump — and
	// require the bump to reach the push subscriber.
	before := s.Revision()
	ctx.Bind("tool", f)
	after := s.Revision()
	if after != before+1 {
		t.Fatalf("Revision = %d after bind in fresh context, want %d (exactly one bump)", after, before+1)
	}
	deadline := time.After(5 * time.Second)
	for rev := uint64(0); rev < after; {
		select {
		case rev = <-pushed:
		case <-deadline:
			t.Fatalf("no push at revision %d reached the subscriber", after)
		}
	}

	// A revision-tracked cache must learn of the next change within one
	// round-trip: mutate again, and the next response — for any name —
	// carries a later revision.
	p := core.ParsePath("usr/fresh/tool")
	got, _, primed, err := c.ResolveRev(p)
	if err != nil || got != f {
		t.Fatalf("resolve fresh binding = %v, %v", got, err)
	}
	ctx.Unbind("tool")
	if _, _, rev, err := c.ResolveRev(core.ParsePath("usr/bin/ls")); err != nil || rev <= primed {
		t.Fatalf("revision %d (%v) after unbind in fresh context, want > %d (no bump reached the response)", rev, err, primed)
	}
	if _, err := c.Resolve(p); err == nil {
		t.Fatal("an unbound name still resolved")
	}
}

// TestWatchExportSharedDirectory covers a directory bound under two paths
// (a link to a directory): it is one context, watched once, and a bind
// through either path — over the wire or server-local — bumps exactly once.
func TestWatchExportSharedDirectory(t *testing.T) {
	w, tr, f := exportedTree(t)
	bin, err := tr.Lookup(core.ParsePath("usr/bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(nil, "bin", bin); err != nil {
		t.Fatal(err)
	}
	s := NewServer(w, tr.RootContext())
	if got := s.WatchExport(tr.Root); got != 3 {
		t.Fatalf("watching %d directories, want 3 (root, usr, and bin once)", got)
	}
	c := pipeClient(t, s)

	for _, via := range []struct {
		dir  string
		name core.Name
	}{{"usr/bin", "via-usr"}, {"bin", "via-link"}} {
		before := s.Revision()
		rev, err := c.Bind(core.ParsePath(via.dir), via.name, f)
		if err != nil {
			t.Fatal(err)
		}
		if rev != before+1 || s.Revision() != before+1 {
			t.Fatalf("bind through %q committed at %d (server at %d), want exactly %d",
				via.dir, rev, s.Revision(), before+1)
		}
	}
	binCtx, _ := w.ContextOf(bin)
	before := s.Revision()
	binCtx.Bind("local", f)
	if got := s.Revision(); got != before+1 {
		t.Fatalf("server-local bind moved the revision %d → %d, want one bump", before, got)
	}
	for _, p := range []string{"usr/bin/local", "bin/local", "bin/via-usr", "usr/bin/via-link"} {
		if got, err := c.Resolve(core.ParsePath(p)); err != nil || got != f {
			t.Fatalf("resolve %q = %v, %v", p, got, err)
		}
	}
}

// TestPushInvalidation subscribes a client and checks that a write pushes
// a frame to it without the client issuing any request.
func TestPushInvalidation(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	reader := pipeClient(t, s)
	writer := pipeClient(t, s)

	if err := reader.Subscribe(nil); err != nil {
		t.Fatal(err)
	}
	if err := reader.Subscribe(nil); err == nil {
		t.Fatal("second Subscribe did not error")
	}

	p := core.ParsePath("usr/bin/ls")
	if got, err := reader.Resolve(p); err != nil || got != f {
		t.Fatalf("resolve before the write = %v, %v", got, err)
	}

	// A write through another connection must reach the reader as a push.
	if _, err := writer.Unbind(core.ParsePath("usr/bin"), "ls"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reader.Metrics().Invalidations == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no invalidation frame arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// The subscribed connection still answers calls, and sees the unbound
	// state.
	if _, err := reader.Resolve(p); err == nil {
		t.Fatal("resolve after pushed unbind still served the old binding")
	}
}

// TestPushInvalidationCallback checks the onInval hook and that writes on
// the subscriber's own connection also invalidate it.
func TestPushInvalidationCallback(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	c := pipeClient(t, s)

	got := make(chan uint64, 16)
	if err := c.Subscribe(func(rev uint64) { got <- rev }); err != nil {
		t.Fatal(err)
	}
	rev, err := c.Bind(core.ParsePath("usr/bin"), "ls2", f)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case pushed := <-got:
		if pushed < rev {
			t.Fatalf("pushed revision %d < commit revision %d", pushed, rev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onInval callback never ran")
	}
}
