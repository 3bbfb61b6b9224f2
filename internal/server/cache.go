package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sofos/internal/api"
)

// resultCache is a sharded LRU over rendered query responses. Keys embed the
// catalog generation and view-set hash (see Server.cacheKey), so a write
// never serves a stale entry: it bumps the generation and every later lookup
// uses a new key. The orphaned entries can never be hit again, so a shard
// drops them at its first insert under the newer generation rather than
// holding their bodies until the LRU ages them out: beside a steady writer
// that was most of the server's memory.
// Sharding keeps the per-lookup critical section off the contended path when
// many clients replay the same hot workload.
type resultCache struct {
	shards []cacheShard
	mask   uint64 // len(shards)-1; len is a power of two

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// cacheShard is one LRU segment: a keyed list in recency order. Entries are
// bounded by count (cap) and, when byteCap > 0, by the total rendered bytes
// they hold — bodies are fully rendered []byte, so charging len(body)
// against the budget is exact.
type cacheShard struct {
	mu      sync.Mutex
	ll      *list.List // front = most recent; values are *cacheEntry
	items   map[string]*list.Element
	cap     int
	byteCap int64 // 0 = no byte budget
	bytes   int64 // rendered bytes currently held
	gen     int64 // generation of the newest insert; every entry is of it
}

// cacheEntry stores the fully rendered JSON body of a cached answer (with
// the cached flag already set), so a hit is one byte-slice write — no
// re-execution and no re-encoding.
type cacheEntry struct {
	key  string
	body []byte
}

// numCacheShards is fixed at a small power of two: enough to spread lock
// contention across CPUs without fragmenting tiny caches.
const numCacheShards = 16

// newResultCache builds a cache holding up to capacity entries in total,
// charging rendered body sizes against maxBytes when it is positive (0
// keeps the entry-count bound only). A capacity below numCacheShards still
// grants each shard one slot.
func newResultCache(capacity int, maxBytes int64) *resultCache {
	per := capacity / numCacheShards
	if per < 1 {
		per = 1
	}
	bytesPer := maxBytes / numCacheShards
	if maxBytes > 0 && bytesPer < 1 {
		bytesPer = 1
	}
	c := &resultCache{shards: make([]cacheShard, numCacheShards), mask: numCacheShards - 1}
	for i := range c.shards {
		c.shards[i] = cacheShard{ll: list.New(), items: make(map[string]*list.Element), cap: per, byteCap: bytesPer}
	}
	return c
}

// fnv-1a constants, inlined so shard selection allocates nothing on the
// per-request hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (c *resultCache) shard(key string) *cacheShard {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return &c.shards[h&c.mask]
}

// get returns the cached body for key, promoting it to most recent and
// counting a hit or miss.
func (c *resultCache) get(key string) ([]byte, bool) {
	body, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return body, ok
}

// recheck is get for the second lookup of one request (after admission):
// a hit still counts, but a miss was already counted by the fast path.
func (c *resultCache) recheck(key string) ([]byte, bool) {
	body, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
	}
	return body, ok
}

func (c *resultCache) lookup(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put inserts (or refreshes) an answer computed at generation gen, evicting
// the shard's entries of older generations, then least-recent entries while
// the shard overflows its entry count or byte budget. An answer older than
// the shard's generation is dropped: no later lookup could ask for it.
func (c *resultCache) put(gen int64, key string, body []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen < s.gen {
		return
	}
	if gen > s.gen {
		c.evictions.Add(int64(s.ll.Len()))
		s.ll.Init()
		clear(s.items)
		s.bytes, s.gen = 0, gen
	}
	if el, ok := s.items[key]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&cacheEntry{key: key, body: body})
		s.bytes += int64(len(body))
	}
	// At least one entry always stays resident, so a single body larger than
	// the shard budget is still served (and evicted by the next insert).
	for s.ll.Len() > s.cap || (s.byteCap > 0 && s.bytes > s.byteCap && s.ll.Len() > 1) {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		s.bytes -= int64(len(e.body))
		delete(s.items, e.key)
		c.evictions.Add(1)
	}
}

// usage returns the live entry count and rendered bytes across shards.
func (c *resultCache) usage() (entries int, bytes int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += s.ll.Len()
		bytes += s.bytes
		s.mu.Unlock()
	}
	return entries, bytes
}

// stats reports cache effectiveness and memory footprint for /stats.
func (c *resultCache) stats() api.CacheStats {
	entries, bytes := c.usage()
	var maxBytes int64
	for i := range c.shards {
		maxBytes += c.shards[i].byteCap
	}
	return api.CacheStats{
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  maxBytes,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
