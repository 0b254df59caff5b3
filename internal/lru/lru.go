package lru

// Cache is a fixed-capacity map with SIEVE eviction (Zhang et al., "SIEVE
// is Simpler than LRU", NSDI '24). Entries sit in a queue by insertion
// order; a hit only sets the entry's visited bit, and nothing moves. To make
// room, a hand walks from the oldest entry towards the newest (wrapping),
// clears the visited bits it passes, and evicts the first entry whose bit
// was already clear; it stays on the next newer entry for the next
// eviction. The zero value is not usable; call New. Cache is not safe for
// concurrent use — callers hold their own locks (the nameserver and cluster
// clients already serialize cache access).
//
// The queue is a slot array linked by index: an insert into a full cache
// reuses the slot it just evicted, so steady-state Get, Put and DeleteFunc
// allocate nothing.
type Cache[K comparable, V any] struct {
	capacity int
	index    map[K]int    // key -> slot
	slots    []slot[K, V] // never longer than capacity
	newest   int          // queue head; none when empty
	oldest   int          // queue tail; none when empty
	hand     int          // next eviction candidate; none: start at oldest
	free     int          // slots DeleteFunc vacated, chained through older
}

// slot is one queue position.
type slot[K comparable, V any] struct {
	key          K
	val          V
	newer, older int // neighbouring slots; none past either end
	visited      bool
}

const none = -1

// New returns an empty cache holding at most capacity entries. A capacity
// of zero or less yields a cache that stores nothing.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		index:    make(map[K]int),
		newest:   none,
		oldest:   none,
		hand:     none,
		free:     none,
	}
}

// Get returns the value bound to key and marks it visited.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if i, ok := c.index[key]; ok {
		c.slots[i].visited = true
		return c.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Put binds key to val, evicting one entry if the cache is full. Rebinding
// an existing key updates the value in place and marks it visited; a new key
// goes in at the head of the queue.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.capacity <= 0 {
		return
	}
	if i, ok := c.index[key]; ok {
		c.slots[i].val = val
		c.slots[i].visited = true
		return
	}
	var i int
	switch {
	case len(c.index) >= c.capacity:
		i = c.evict()
	case c.free != none:
		i = c.free
		c.free = c.slots[i].older
	default:
		c.slots = append(c.slots, slot[K, V]{})
		i = len(c.slots) - 1
	}
	c.slots[i] = slot[K, V]{key: key, val: val, newer: none, older: c.newest}
	if c.newest != none {
		c.slots[c.newest].newer = i
	} else {
		c.oldest = i
	}
	c.newest = i
	c.index[key] = i
}

// evict runs the hand to the first unvisited entry, unlinks it and returns
// its slot for reuse. The cache is not empty.
func (c *Cache[K, V]) evict() int {
	i := c.hand
	if i == none {
		i = c.oldest
	}
	for c.slots[i].visited {
		c.slots[i].visited = false
		if i = c.slots[i].newer; i == none {
			i = c.oldest
		}
	}
	c.hand = c.slots[i].newer
	c.unlink(i)
	delete(c.index, c.slots[i].key)
	return i
}

// unlink takes slot i out of the queue.
func (c *Cache[K, V]) unlink(i int) {
	s := &c.slots[i]
	if s.newer != none {
		c.slots[s.newer].older = s.older
	} else {
		c.newest = s.older
	}
	if s.older != none {
		c.slots[s.older].newer = s.newer
	} else {
		c.oldest = s.newer
	}
}

// DeleteFunc removes every entry for which keep returns false and returns
// how many entries were removed. It visits entries newest insert first. A
// removed entry under the hand passes the hand to its newer neighbour.
func (c *Cache[K, V]) DeleteFunc(keep func(key K, val V) bool) int {
	removed := 0
	for i := c.newest; i != none; {
		s := &c.slots[i]
		older := s.older
		if !keep(s.key, s.val) {
			if c.hand == i {
				c.hand = s.newer
			}
			c.unlink(i)
			delete(c.index, s.key)
			*s = slot[K, V]{older: c.free} // drop the key and value for the collector
			c.free = i
			removed++
		}
		i = older
	}
	return removed
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.index) }
