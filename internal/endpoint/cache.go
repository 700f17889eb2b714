package endpoint

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
)

// cacheKey is the tuple a read's ETag hashes: the query text, the
// version of the view the handler pinned, the applied seq read with that
// view, and the negotiated format. Two reads with equal keys produce
// byte-identical bodies.
type cacheKey struct {
	src     string
	version uint64
	seq     uint64
	format  Format
}

// etag derives the strong validator for a read from its key.
func (k cacheKey) etag() string {
	h := fnv.New64a()
	io.WriteString(h, k.src)
	fmt.Fprintf(h, "|%d|%d|%d", k.version, k.seq, k.format)
	return fmt.Sprintf("\"t%016x\"", h.Sum64())
}

// ResultCache is an LRU cache of encoded read responses keyed by the
// ETag's tuple. It compares the whole tuple, never the 64-bit hash, so a
// crafted query text cannot collide into another query's entry. A write
// moves the version, so later reads key differently and the older
// entries age out of the LRU; the write path never touches the cache.
type ResultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	key  cacheKey
	body []byte
}

// NewResultCache returns a cache holding at most capacity bodies; a
// capacity < 1 disables caching (Get always misses, Put is a no-op).
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		cap:   capacity,
		ll:    list.New(),
		items: map[cacheKey]*list.Element{},
	}
}

// Get returns the cached body for key.
func (c *ResultCache) Get(key cacheKey) ([]byte, bool) {
	if c.cap < 1 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

// Put stores the body for key, evicting the least recently used entry
// when over capacity. The body must not be modified afterwards.
func (c *ResultCache) Put(key cacheKey, body []byte) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// Len reports the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a snapshot of cache counters.
type CacheStats struct {
	Capacity int    `json:"capacity"`
	Entries  int    `json:"entries"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
}

// Stats returns a snapshot of the cache's counters.
func (c *ResultCache) Stats() CacheStats {
	return CacheStats{
		Capacity: c.cap,
		Entries:  c.Len(),
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
	}
}
