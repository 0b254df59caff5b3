package lru

import (
	"fmt"
	"slices"
	"testing"
)

// sieveModel is SIEVE the slow way, the reference FuzzCacheAgainstModel
// holds Cache to: a slice oldest first, the hand an index into it (-1:
// start at the oldest), every lookup a scan.
type sieveModel struct {
	capacity int
	entries  []modelEntry
	hand     int
}

type modelEntry struct {
	key, val int
	visited  bool
}

func (m *sieveModel) find(key int) int {
	return slices.IndexFunc(m.entries, func(e modelEntry) bool { return e.key == key })
}

func (m *sieveModel) get(key int) (int, bool) {
	i := m.find(key)
	if i < 0 {
		return 0, false
	}
	m.entries[i].visited = true
	return m.entries[i].val, true
}

func (m *sieveModel) put(key, val int) {
	if i := m.find(key); i >= 0 {
		m.entries[i].val, m.entries[i].visited = val, true
		return
	}
	if len(m.entries) == m.capacity {
		m.hand = max(m.hand, 0)
		for m.entries[m.hand].visited {
			m.entries[m.hand].visited = false
			m.hand = (m.hand + 1) % len(m.entries)
		}
		m.remove(m.hand)
	}
	m.entries = append(m.entries, modelEntry{key: key, val: val})
}

func (m *sieveModel) deleteFunc(keep func(key, val int) bool) int {
	removed := 0
	for i := len(m.entries) - 1; i >= 0; i-- {
		if !keep(m.entries[i].key, m.entries[i].val) {
			m.remove(i)
			removed++
		}
	}
	return removed
}

// remove drops entries[i]; the hand keeps its entry, or passes to the next
// newer one when its own goes (back to the oldest past the newest).
func (m *sieveModel) remove(i int) {
	m.entries = slices.Delete(m.entries, i, i+1)
	if i < m.hand {
		m.hand--
	} else if m.hand == len(m.entries) {
		m.hand = -1
	}
}

// keysNewestFirst reads the cache's queue without touching a visited bit or
// the hand: a DeleteFunc that keeps everything.
func keysNewestFirst[K comparable, V any](c *Cache[K, V]) []K {
	var keys []K
	c.DeleteFunc(func(k K, _ V) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// FuzzCacheAgainstModel runs Cache and sieveModel through the same
// operations: the first byte picks a capacity of 1–8, every later byte one
// operation on one of 16 keys (low four bits). Bits 4–5 pick the operation:
// Get, Put, rebind a resident key, or DeleteFunc of the keys congruent to
// the byte's key mod 4. After every operation both must have answered
// alike and hold the same keys in the same order, within capacity.
func FuzzCacheAgainstModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0x10, 0x11, 0x12, 0x13, 0x00, 0x14, 0x15, 0x01, 0x16})       // fill 4, hit one, evict past it twice
	f.Add([]byte{2, 0x10, 0x11, 0x00, 0x01, 0x12, 0x20, 0x13, 0x14})             // every entry visited: the hand wraps
	f.Add([]byte{2, 0x10, 0x11, 0x12, 0x00, 0x13, 0x32, 0x14, 0x15, 0x16})       // DeleteFunc takes the entry under the hand
	f.Add([]byte{7, 0x10, 0x11, 0x12, 0x13, 0x21, 0x22, 0x3f, 0x14, 0x00, 0x15}) // rebinds, then a purge, then refill
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0]%8)
		c := New[int, int](capacity)
		m := &sieveModel{capacity: capacity, hand: -1}
		for step, b := range ops[1:] {
			key := int(b & 15)
			switch b >> 4 & 3 {
			case 0:
				v, ok := c.Get(key)
				mv, mok := m.get(key)
				if v != mv || ok != mok {
					t.Fatalf("step %d: Get(%d) = %d, %v; model %d, %v", step, key, v, ok, mv, mok)
				}
			case 1:
				c.Put(key, step)
				m.put(key, step)
			case 2:
				if len(m.entries) > 0 {
					key = m.entries[key%len(m.entries)].key
				}
				c.Put(key, step)
				m.put(key, step)
			case 3:
				keep := func(k, _ int) bool { return k%4 != key%4 }
				if n, mn := c.DeleteFunc(keep), m.deleteFunc(keep); n != mn {
					t.Fatalf("step %d: DeleteFunc removed %d; model %d", step, n, mn)
				}
			}
			got := keysNewestFirst(c)
			want := make([]int, len(m.entries))
			for i, e := range m.entries {
				want[len(want)-1-i] = e.key
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (op %#x): cache holds %v newest first; model %v", step, b, got, want)
			}
			if c.Len() != len(got) || c.Len() > capacity {
				t.Fatalf("step %d: Len = %d holding %d keys, capacity %d", step, c.Len(), len(got), capacity)
			}
		}
	})
}

// An entry hit since it was inserted outlives a sweep of twice the
// capacity in keys seen once: the sweep's own entries are what the hand
// finds unvisited. (Under LRU the first capacity-many of them flushed it.)
func TestScanResistance(t *testing.T) {
	const capacity = 8
	c := New[string, int](capacity)
	for i := 0; i < capacity; i++ {
		c.Put(fmt.Sprint("warm", i), i)
	}
	if _, ok := c.Get("warm0"); !ok {
		t.Fatal("warm0 missing before the sweep")
	}
	for i := 0; i < 2*capacity; i++ {
		key := fmt.Sprint("cold", i)
		if _, ok := c.Get(key); ok {
			t.Fatalf("%s hit before it was put", key)
		}
		c.Put(key, i)
	}
	if v, ok := c.Get("warm0"); !ok || v != 0 {
		t.Fatalf("warm0 = %d, %v after a sweep of %d cold keys; want it kept", v, ok, 2*capacity)
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want %d", c.Len(), capacity)
	}
}

// After an eviction the hand stays on the entry next newer than the one it
// evicted, past every bit it cleared: the next eviction starts there, not at
// the oldest entry again.
func TestHandResumesAfterEviction(t *testing.T) {
	c := New[string, int](4)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i)
	}
	c.Get("a")
	c.Get("b")
	c.Put("e", 4) // clears a and b, evicts c; the hand rests on d
	c.Get("a")    // a is visited again, b is not
	c.Put("f", 5) // d is under the hand and unvisited: it goes, not b
	for _, k := range []string{"c", "d"} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("%s survived; the hand did not resume past the bits it cleared", k)
		}
	}
	for _, k := range []string{"a", "b", "e", "f"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted; the hand restarted at the oldest entry", k)
		}
	}
}

// DeleteFunc removing the entry under the hand passes the hand to the next
// newer entry: the next eviction neither restarts at the oldest nor lands
// on whatever reuses the removed slot.
func TestDeleteFuncMovesHand(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	c.Get("a")
	c.Put("d", 3) // clears a, evicts b; the hand rests on c
	if n := c.DeleteFunc(func(k string, _ int) bool { return k != "c" }); n != 1 {
		t.Fatalf("DeleteFunc removed %d, want 1", n)
	}
	c.Put("e", 4) // fills c's slot
	c.Put("f", 5) // the hand is on d: d goes
	if got, want := keysNewestFirst(c), []string{"f", "e", "a"}; !slices.Equal(got, want) {
		t.Fatalf("cache holds %v newest first, want %v", got, want)
	}
}
