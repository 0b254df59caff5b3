//go:build !race

// The live-heap bound of the benchmark's tree. Excluded under -race: the
// race runtime allocates differently (no tiny-object packing) and reads
// the same tree ~20% larger.
package core

import (
	"runtime"
	"strconv"
	"testing"
)

// nsloadTreeHeapBound is the live heap nsloadTree read when each directory
// was a Go map (7.56 MB, go1.24 on amd64). The binding tables read 7.30 MB;
// a table layout that costs more than the map it replaced fails here.
const nsloadTreeHeapBound = 7.56e6

// TestNsloadTreeLiveHeap pins the heap the benchmark's tree keeps alive
// after a collection: its directories, bindings, keys and entity rows, and
// the leaf paths the benchmarks draw from.
func TestNsloadTreeLiveHeap(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the bound is for 64-bit word sizes")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, root, leaves, _ := nsloadTree(t)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(w)
	runtime.KeepAlive(root)
	runtime.KeepAlive(leaves)
	t.Logf("nsloadTree live heap: %.2f MB", live/1e6)
	if live > nsloadTreeHeapBound {
		t.Fatalf("nsloadTree keeps %.2f MB live, bound %.2f MB", live/1e6, nsloadTreeHeapBound/1e6)
	}
}
