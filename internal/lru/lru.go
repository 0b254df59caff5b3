package lru

import "container/list"

// Cache is a fixed-capacity map with least-recently-used eviction. Both Get
// and Put count as use. The zero value is not usable; call New. Cache is not
// safe for concurrent use — callers hold their own locks (the nameserver and
// cluster clients already serialize cache access).
type Cache[K comparable, V any] struct {
	capacity int
	order    *list.List // front = most recently used
	items    map[K]*list.Element
}

// entry is what the list elements hold.
type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries. A capacity
// of zero or less yields a cache that stores nothing.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[K]*list.Element),
	}
}

// Get returns the value bound to key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put binds key to val, evicting the least recently used entry if the cache
// is full. Rebinding an existing key updates the value in place.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*entry[K, V]).key)
		}
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
}

// DeleteFunc removes every entry for which keep returns false and returns
// how many entries were removed. It visits entries in recency order.
func (c *Cache[K, V]) DeleteFunc(keep func(key K, val V) bool) int {
	removed := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry[K, V])
		if !keep(e.key, e.val) {
			c.order.Remove(el)
			delete(c.items, e.key)
			removed++
		}
		el = next
	}
	return removed
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }
