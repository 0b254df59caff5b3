package snapstore

import (
	"fmt"
	"math/rand"
	"testing"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// randomTree drives a tree through a random operation sequence and
// returns it, mirroring dirtree's property-test generator.
func randomTree(t *testing.T, rng *rand.Rand, parentLinks bool) *dirtree.Tree {
	t.Helper()
	w := core.NewWorld()
	var tr *dirtree.Tree
	if parentLinks {
		tr = dirtree.NewWithParentLinks(w, "root")
	} else {
		tr = dirtree.New(w, "root")
	}
	dirPaths := []string{""}
	var filePaths []string
	for step := 0; step < 80; step++ {
		parent := dirPaths[rng.Intn(len(dirPaths))]
		name := fmt.Sprintf("e%03d", step)
		child := name
		if parent != "" {
			child = parent + "/" + name
		}
		switch rng.Intn(4) {
		case 0: // mkdir
			if _, err := tr.MkdirAll(core.ParsePath(child)); err != nil {
				t.Fatalf("step %d mkdir: %v", step, err)
			}
			dirPaths = append(dirPaths, child)
		case 1, 2: // create file, duplicated content now and then for dedup
			content := fmt.Sprintf("content-%d", step%7)
			if _, err := tr.Create(core.ParsePath(child), content); err != nil {
				t.Fatalf("step %d create: %v", step, err)
			}
			filePaths = append(filePaths, child)
		case 3: // detach a random file (if any)
			if len(filePaths) == 0 {
				continue
			}
			i := rng.Intn(len(filePaths))
			p := core.ParsePath(filePaths[i])
			if err := tr.Detach(p[:len(p)-1], p[len(p)-1]); err != nil {
				t.Fatalf("step %d detach: %v", step, err)
			}
			filePaths = append(filePaths[:i], filePaths[i+1:]...)
		}
	}
	return tr
}

// Snapshot∘Restore is a fixed point: restoring a snapshot and
// snapshotting the restored world reproduces the identical root hash,
// and the restored tree is structurally equal to the original.
func TestSnapshotRestoreFixedPoint(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := randomTree(t, rng, seed%2 == 1)

			st := newMemStore()
			h1, err := st.Snapshot(tr.W, tr.Root)
			if err != nil {
				t.Fatal(err)
			}

			w2 := core.NewWorld()
			tr2, err := st.Restore(h1, w2, "root")
			if err != nil {
				t.Fatal(err)
			}
			requireSameSignature(t, signature(t, tr), signature(t, tr2))

			h2, err := st.Snapshot(w2, tr2.Root)
			if err != nil {
				t.Fatal(err)
			}
			if h1 != h2 {
				t.Fatalf("fixed point violated: %s → restore → %s", h1, h2)
			}

			// Restore of the re-snapshot closes the loop.
			w3 := core.NewWorld()
			tr3, err := st.Restore(h2, w3, "root")
			if err != nil {
				t.Fatal(err)
			}
			requireSameSignature(t, signature(t, tr2), signature(t, tr3))
		})
	}
}

// Snapshotting the same world twice writes nothing new: every blob of the
// second pass dedups against the first.
func TestRepeatedSnapshotIsPureDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTree(t, rng, false)

	st := newMemStore()
	h1, err := st.Snapshot(tr.W, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	stored := st.CAS().Stats().Stored
	h2, err := st.Snapshot(tr.W, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("same world snapshotted to different roots: %s vs %s", h1, h2)
	}
	if got := st.CAS().Stats().Stored; got != stored {
		t.Fatalf("second snapshot stored %d new blobs", got-stored)
	}
	if ratio := st.CAS().Stats().DedupRatio(); ratio <= 1 {
		t.Fatalf("dedup ratio = %v, want > 1", ratio)
	}
}

// Catch-up into an empty replica transfers a blob set sufficient to
// restore a structurally identical tree, for arbitrary random trees.
func TestCatchUpRestoresRandomTrees(t *testing.T) {
	for seed := int64(20); seed < 23; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := randomTree(t, rng, seed%2 == 0)
			st := newMemStore()
			root, err := st.Snapshot(tr.W, tr.Root)
			if err != nil {
				t.Fatal(err)
			}
			replica := cas.NewMem()
			if _, _, err := st.CatchUp(replica, root); err != nil {
				t.Fatal(err)
			}
			w2 := core.NewWorld()
			tr2, err := New(cas.NewStore(replica)).Restore(root, w2, "root")
			if err != nil {
				t.Fatal(err)
			}
			requireSameSignature(t, signature(t, tr), signature(t, tr2))
		})
	}
}
