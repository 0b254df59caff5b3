package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// nsloadTree builds the shape the two-process benchmark serves — 16×16×16
// directories of 8 files, 32 768 leaf names at depth 4 — with the export
// watched the way nsd watches it, and returns the root context, every leaf
// path, and how many directories WatchReachable reported.
func nsloadTree(tb testing.TB) (w *World, root *BasicContext, leaves []Path, watched int) {
	tb.Helper()
	const fanout, files = 16, 8
	w = NewWorld()
	rootE, root := w.NewContextObject("export")
	mkdir := func(parent *BasicContext, name string) *BasicContext {
		e, c := w.NewContextObject(name)
		parent.Bind(Name(name), e)
		return c
	}
	for t := 0; t < fanout; t++ {
		tn := fmt.Sprintf("t%02d", t)
		tc := mkdir(root, tn)
		for d := 0; d < fanout; d++ {
			dn := fmt.Sprintf("d%02d", d)
			dc := mkdir(tc, dn)
			for s := 0; s < fanout; s++ {
				sn := fmt.Sprintf("s%02d", s)
				sc := mkdir(dc, sn)
				for f := 0; f < files; f++ {
					fn := fmt.Sprintf("f%d", f)
					sc.Bind(Name(fn), w.NewObject(fn))
					leaves = append(leaves, PathOf(Name(tn), Name(dn), Name(sn), Name(fn)))
				}
			}
		}
	}
	watched, _ = w.WatchReachable(rootE, func(Change) {})
	return w, root, leaves, watched
}

var benchSink Entity

// BenchmarkCoreResolve is the ladder's bottom rung on the tree the
// end-to-end benchmark serves: seeded uniform names, so nearly every step
// of the walk misses the cache the way a loaded nsd's does.
func BenchmarkCoreResolve(b *testing.B) {
	w, root, leaves, _ := nsloadTree(b)
	r := rand.New(rand.NewSource(1))
	seq := make([]int32, 1<<16)
	for i := range seq {
		seq[i] = int32(r.Intn(len(leaves)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := w.Resolve(root, leaves[seq[i&(len(seq)-1)]])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = e
	}
}

// TestResolveAllocFloor pins the walk at zero allocations on a watched
// tree, and the watch count nsd prints as "watching N directories".
func TestResolveAllocFloor(t *testing.T) {
	w, root, leaves, watched := nsloadTree(t)
	if want := 1 + 16 + 16*16 + 16*16*16; watched != want {
		t.Fatalf("WatchReachable = %d, want %d", watched, want)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, dir, err := w.ResolveIn(root, leaves[(i*7919)%len(leaves)]); err != nil || dir.IsUndefined() {
			t.Fatal(dir, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("ResolveIn on a watched tree: %v allocs/op, want 0", allocs)
	}
}
