package nameserver

import (
	"testing"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/snapstore"
)

// TestStableSnapshotExcludesConcurrentWrite is the torn-snapshot
// regression: a snapshot's revision read and tree walk must run under the
// same lock that serializes binding changes (Server.Stable), as the
// cluster's flush runs them, or a wire mutation landing between the two
// produces a snapshot whose content disagrees with its committed revision.
// The test fires a wire Bind from the middle of a Stable-wrapped snapshot
// and checks (a) the bind blocks until the snapshot finishes and (b) the
// committed snapshot does not contain it.
func TestStableSnapshotExcludesConcurrentWrite(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	c := pipeClient(t, s)

	st, err := snapstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	bound := make(chan error, 1)
	var h cas.Hash
	var rev uint64
	s.Stable(func() {
		rev = s.Revision()
		// A writer shows up mid-snapshot. Under Stable it must block on
		// the write lock until the walk below completes.
		go func() {
			_, err := c.Bind(core.ParsePath("usr/bin"), "torn", f)
			bound <- err
		}()
		select {
		case err := <-bound:
			t.Errorf("bind completed during stable snapshot: %v", err)
			bound <- nil // keep the post-snap receive from hanging
		case <-time.After(50 * time.Millisecond):
			// Blocked, as it must be.
		}
		h, err = st.Snapshot(w, tr.Root)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(0, rev, h); err != nil {
		t.Fatal(err)
	}
	if err := <-bound; err != nil {
		t.Fatalf("bind after snapshot: %v", err)
	}

	// The committed snapshot must restore to a tree WITHOUT the bind that
	// arrived mid-snapshot.
	last, ok := st.Latest(0)
	if !ok {
		t.Fatal("no committed snapshot")
	}
	root, err := last.RootHash()
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld()
	tr2, err := st.Restore(root, w2, "restored")
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(w2, tr2.RootContext())
	c2 := pipeClient(t, s2)
	if _, err := c2.Resolve(core.ParsePath("usr/bin/torn")); err == nil {
		t.Fatal("snapshot contains a binding committed after its revision was read")
	}
	// ...while the live server does have it.
	if got, err := c.Resolve(core.ParsePath("usr/bin/torn")); err != nil || got != f {
		t.Fatalf("live resolve of post-snapshot bind = %v, %v", got, err)
	}
}
