package lru

import (
	"math/rand/v2"
	"strconv"
	"testing"
)

// After warm-up nothing allocates: a hit sets a bit, a miss into a full
// cache reuses the slot it evicts, and a slot DeleteFunc vacates is the next
// Put's.
func TestCacheAllocFree(t *testing.T) {
	const capacity = 64
	keys := make([]string, 16*capacity)
	for i := range keys {
		keys[i] = "/k/" + strconv.Itoa(i)
	}
	c := New[string, int](capacity)
	for _, k := range keys { // every slot in use, the map at its full size
		c.Put(k, 0)
	}
	resident := keys[len(keys)-capacity:]
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		c.Get(resident[i%capacity])
		i++
	}); n != 0 {
		t.Errorf("Get: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Put(keys[i%len(keys)], i) // resident only a capacity ago: an eviction each time
		i++
	}); n != 0 {
		t.Errorf("Put with an eviction: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		victim := keys[i%len(keys)]
		c.DeleteFunc(func(k string, _ int) bool { return k != victim })
		c.Put(keys[(i+capacity)%len(keys)], i)
		i++
	}); n != 0 {
		t.Errorf("DeleteFunc then Put: %v allocs/op, want 0", n)
	}
	if c.Len() > capacity {
		t.Fatalf("Len = %d over capacity %d", c.Len(), capacity)
	}
}

// zipfStream is nsload's cluster-zipf name stream in miniature: Zipf(1.1)
// ranks over 32 768 names, mapped through a seeded permutation.
func zipfStream(n int, seed uint64) []string {
	const names = 32768
	r := rand.New(rand.NewPCG(seed, 2))
	perm := r.Perm(names)
	z := rand.NewZipf(r, 1.1, 1, names-1)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "/n/" + strconv.Itoa(perm[z.Uint64()])
	}
	return keys
}

// zipfHits is what one replay of BenchmarkCacheZipf's stream into an empty
// 4 096-entry cache hits under SIEVE (0.843); LRU hit 108 549 of the same
// 131 072 (0.828).
const zipfHits = 110459

// BenchmarkCacheZipf replays a fixed stream of 131 072 lookups, get or put
// on miss as the cluster client does, into a cleared 4 096-entry cache per
// op. hits/op is exact, and below SIEVE's count the policy has regressed.
func BenchmarkCacheZipf(b *testing.B) {
	keys := zipfStream(1<<17, 1)
	c := New[string, int](4096)
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DeleteFunc(func(string, int) bool { return false })
		for _, k := range keys {
			if _, ok := c.Get(k); ok {
				hits++
			} else {
				c.Put(k, i)
			}
		}
	}
	b.StopTimer()
	if hits < zipfHits*b.N {
		b.Fatalf("%d replays hit %d times, want %d each (SIEVE)", b.N, hits, zipfHits)
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/lookup")
}
