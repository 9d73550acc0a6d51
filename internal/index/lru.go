package index

import "container/list"

// lru is a minimal least-recently-used cache. It does no locking of its
// own: callers guard it (tables.mu) because get mutates recency order.
type lru[K comparable, V any] struct {
	cap int
	ll  *list.List
	m   map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	k K
	v V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element)}
}

func (c *lru[K, V]) get(k K) (V, bool) {
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).v, true
	}
	var zero V
	return zero, false
}

// add inserts k→v, evicting the least recently used entry when the cache
// is full. It reports whether an eviction happened. Adding an existing key
// refreshes its value and recency without evicting.
func (c *lru[K, V]) add(k K, v V) (evicted bool) {
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry[K, V]).v = v
		c.ll.MoveToFront(el)
		return false
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry[K, V]).k)
		evicted = true
	}
	c.m[k] = c.ll.PushFront(&lruEntry[K, V]{k: k, v: v})
	return evicted
}

// removeIf drops every entry whose key satisfies drop.
func (c *lru[K, V]) removeIf(drop func(K) bool) {
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if k := el.Value.(*lruEntry[K, V]).k; drop(k) {
			c.ll.Remove(el)
			delete(c.m, k)
		}
		el = next
	}
}

func (c *lru[K, V]) len() int { return c.ll.Len() }
