package lru

import "testing"

func TestPutGet(t *testing.T) {
	c := New[string, int](4)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) hit")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// The name is older than the policy: what is evicted is the oldest entry
// not visited since the hand last passed it, not the least recently used.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	// Visit a: the hand clears its bit and passes on, so b is the victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (oldest unvisited)")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("Get(%s) = %d, %v; want %d", k, v, ok, want)
		}
	}
}

func TestRebindUpdatesInPlace(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 9) // no eviction: a already present
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("Get(a) = %d, want 9", v)
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted by an in-place rebind")
	}
}

func TestDeterministicEvictionOrder(t *testing.T) {
	// The motivating property: a fixed access sequence always leaves the
	// same residue (the old map-based cache evicted an arbitrary entry).
	run := func() []string {
		c := New[string, bool](3)
		for _, k := range []string{"a", "b", "c", "a", "d", "e", "b"} {
			if _, ok := c.Get(k); !ok {
				c.Put(k, true)
			}
		}
		var got []string
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			if _, ok := c.Get(k); ok {
				got = append(got, k)
			}
		}
		return got
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d: residue %v != %v", i, again, first)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("run %d: residue %v != %v", i, again, first)
			}
		}
	}
}

func TestDeleteFuncAndClear(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 6; i++ {
		c.Put(i, i*i)
	}
	removed := c.DeleteFunc(func(k, _ int) bool { return k%2 == 0 })
	if removed != 3 || c.Len() != 3 {
		t.Fatalf("DeleteFunc removed %d, Len = %d", removed, c.Len())
	}
	// Keeping nothing clears the cache (a whole-shard purge on a one-shard
	// cluster), and it stays usable.
	if removed := c.DeleteFunc(func(int, int) bool { return false }); removed != 3 || c.Len() != 0 {
		t.Fatalf("clearing DeleteFunc removed %d, Len = %d", removed, c.Len())
	}
	c.Put(7, 49)
	if v, ok := c.Get(7); !ok || v != 49 {
		t.Fatal("cache unusable after being cleared")
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New[string, int](0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok || c.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}
