package snapstore

import (
	"fmt"
	"testing"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// benchTree builds a deep tree with replicated subtrees: fanout^depth
// directories where every directory holds files whose contents repeat
// across siblings, so content addressing has real sharing to find.
func benchTree(b *testing.B, fanout, depth, filesPerDir int) *dirtree.Tree {
	b.Helper()
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	var build func(at core.Path, d int)
	build = func(at core.Path, d int) {
		for f := 0; f < filesPerDir; f++ {
			// Content keyed by position in the subtree, not by absolute
			// path: sibling subtrees are byte-identical and dedup.
			p := at.Append(core.Name(fmt.Sprintf("f%d", f)))
			if _, err := tr.Create(p, fmt.Sprintf("payload-%d-%d", d, f)); err != nil {
				b.Fatal(err)
			}
		}
		if d == depth {
			return
		}
		for c := 0; c < fanout; c++ {
			sub := at.Append(core.Name(fmt.Sprintf("d%d", c)))
			if _, err := tr.MkdirAll(sub); err != nil {
				b.Fatal(err)
			}
			build(sub, d+1)
		}
	}
	build(nil, 0)
	return tr
}

func BenchmarkSnapstoreSnapshot(b *testing.B) {
	tr := benchTree(b, 4, 4, 3)
	st := newMemStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Snapshot(tr.W, tr.Root); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(st.CAS().Stats().DedupRatio(), "dedup-ratio")
}

// BenchmarkSnapstoreIncremental is the keeper's steady state on the nsload
// tree shape: one name in a depth-3 directory rebound between snapshots,
// the encoder told which directory. puts/op is exact and gated — the
// directory and its three ancestors, 4 of the tree's 39 321 nodes; ns/op is
// along for the ride.
func BenchmarkSnapstoreIncremental(b *testing.B) {
	tr := benchTree(b, 16, 3, 8)
	st := newMemStore()
	enc := st.NewEncoder(tr.W, tr.Root)
	if _, err := enc.Snapshot(nil, true); err != nil {
		b.Fatal(err)
	}
	dir, err := tr.Lookup(core.ParsePath("d3/d7/d11"))
	if err != nil {
		b.Fatal(err)
	}
	ctx, _ := tr.W.ContextOf(dir)
	targets := []core.Entity{ctx.Lookup("f0"), ctx.Lookup("f1")}
	dirty := []core.EntityID{dir.ID}
	before := st.CAS().Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Bind("f0", targets[(i+1)%2])
		if _, err := enc.Snapshot(dirty, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := st.CAS().Stats()
	if puts := after.Puts - before.Puts; puts != 4*b.N {
		b.Fatalf("%d snapshots of one dirty depth-3 directory put %d nodes, want 4 each", b.N, puts)
	}
	b.ReportMetric(float64(after.Puts-before.Puts)/float64(b.N), "puts/op")
	b.ReportMetric(float64(after.Stored-before.Stored)/float64(b.N), "stored/op")
	got, _ := enc.Snapshot(nil, false) // nothing dirty: answered from memory
	if want, err := newMemStore().Snapshot(tr.W, tr.Root); err != nil || got != want {
		b.Fatalf("root after %d incremental snapshots is %s, a walk of everything gives %s (%v)", b.N, got, want, err)
	}
}

func BenchmarkSnapstoreRestore(b *testing.B) {
	tr := benchTree(b, 4, 4, 3)
	st := newMemStore()
	root, err := st.Snapshot(tr.W, tr.Root)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Restore(root, core.NewWorld(), "root"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapstoreDiff(b *testing.B) {
	tr := benchTree(b, 4, 4, 3)
	st := newMemStore()
	before, err := st.Snapshot(tr.W, tr.Root)
	if err != nil {
		b.Fatal(err)
	}
	// One deep edit: Diff should touch only the changed spine.
	e, err := tr.Lookup(core.ParsePath("d0/d0/d0/d0/f0"))
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.W.SetState(e, &dirtree.FileData{Content: "edited"}); err != nil {
		b.Fatal(err)
	}
	after, err := st.Snapshot(tr.W, tr.Root)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changes, err := st.Diff(before, after)
		if err != nil {
			b.Fatal(err)
		}
		if len(changes) != 1 {
			b.Fatalf("changes = %d, want 1", len(changes))
		}
	}
}

func BenchmarkSnapstoreCatchUp(b *testing.B) {
	tr := benchTree(b, 4, 4, 3)
	st := newMemStore()
	before, err := st.Snapshot(tr.W, tr.Root)
	if err != nil {
		b.Fatal(err)
	}
	e, err := tr.Lookup(core.ParsePath("d0/d0/d0/d0/f0"))
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.W.SetState(e, &dirtree.FileData{Content: "edited"}); err != nil {
		b.Fatal(err)
	}
	after, err := st.Snapshot(tr.W, tr.Root)
	if err != nil {
		b.Fatal(err)
	}
	var copied, pruned int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		replica := cas.NewMem()
		if _, _, err := st.CatchUp(replica, before); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		copied, pruned, err = st.CatchUp(replica, after)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(copied), "blobs-copied")
	b.ReportMetric(float64(pruned), "subtrees-pruned")
}
