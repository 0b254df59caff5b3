package lru

import (
	"fmt"
	"sync"
	"testing"
)

// A capacity-1 cache degenerates to "remember the last thing": every new
// key evicts the previous one, and touching the resident key keeps it.
func TestCapacityOne(t *testing.T) {
	c := New[string, int](1)
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf(`Get("a") = %d, %v; want 1, true`, v, ok)
	}
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal(`"a" survived eviction in a capacity-1 cache`)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf(`Get("b") = %d, %v; want 2, true`, v, ok)
	}
	// Rebinding the resident key must not evict it.
	c.Put("b", 3)
	if v, ok := c.Get("b"); !ok || v != 3 {
		t.Fatalf(`Get("b") after rebind = %d, %v; want 3, true`, v, ok)
	}
}

// Rebinding an existing key updates in place: Len stays fixed, the value
// is replaced, and the entry's recency is bumped so it outlives a key
// that was untouched for longer.
func TestPutExistingUpdatesInPlace(t *testing.T) {
	c := New[string, int](2)
	c.Put("old", 1)
	c.Put("fresh", 2)
	c.Put("old", 3) // rebind: "old" becomes most recently used
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after rebind", c.Len())
	}
	if v, _ := c.Get("old"); v != 3 {
		t.Fatalf(`Get("old") = %d, want rebound value 3`, v)
	}
	c.Put("third", 4) // evicts "fresh", the least recently used
	if _, ok := c.Get("fresh"); ok {
		t.Fatal(`"fresh" survived; rebind did not bump "old"'s recency`)
	}
	if _, ok := c.Get("old"); !ok {
		t.Fatal(`"old" evicted despite being most recently used`)
	}
}

// The documented usage pattern under concurrency: the cache itself is not
// safe for concurrent use, so callers serialize access with their own
// mutex (as the nameserver and cluster clients do). Run under -race.
func TestConcurrentAccessWithExternalLock(t *testing.T) {
	var mu sync.Mutex
	c := New[string, int](8)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				mu.Lock()
				if _, ok := c.Get(key); !ok {
					c.Put(key, g*1000+i)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if c.Len() > 8 {
		t.Fatalf("Len = %d exceeds the capacity of 8", c.Len())
	}
}
