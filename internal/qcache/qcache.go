// Package qcache is a query result cache with single-flight coalescing for
// the serving layer. Entries are keyed by (graph name, store version, app,
// canonical params): PR 2 made every engine bit-deterministic at any worker
// count and the store mints monotonic, never-reused versions, so a key fully
// addresses a result and a cached payload is bit-identical to a fresh run.
//
// The cache is byte-accounted (the repo's MemoryBytes convention) against an
// LRU budget. Retiring a store version (Add-replace / Delete) invalidates its
// entries via Store.OnRetireReason, and a per-graph tombstone of the highest
// retired version closes the race where a run finishes after its version
// retired: the late insert is dropped instead of caching a permanently stale
// result. Everything is stdlib plus the repo's own internal packages.
package qcache

import (
	"container/list"
	"sync"

	"repro/internal/fault"
)

// Key addresses one cacheable result.
type Key struct {
	// Graph is the store name; Version the store version the result was (or
	// will be) computed on.
	Graph   string
	Version uint64
	// App is the engine program ("pr", "cc", ...); Params an opaque
	// canonical parameter rendering. The cache imposes no structure on it:
	// callers derive it from the app's registered parameter schema
	// (apps.Entry.Canonical), which zeroes the fields the app ignores so
	// equivalent requests share one cache key.
	App    string
	Params string
}

// Result is one cached query outcome: the serialized response payload and
// the run that produced it (whose trace lives in the serving layer's ring).
type Result struct {
	// Payload is the serialized response body, stored and served verbatim.
	Payload []byte
	// RunID identifies the run that produced the payload.
	RunID string
	// Version is the store version the result was actually computed on. When
	// nonzero it overrides the flight key's version at insert time — the
	// admitted handle may pin a newer version than the one the key was built
	// from.
	Version uint64
}

// entryOverhead approximates the fixed per-entry cost: LRU node, map slot,
// key header, and Result header.
const entryOverhead = 128

// MemoryBytes reports the bytes this result accounts against the cache
// budget, following the repo-wide MemoryBytes convention.
func (r Result) MemoryBytes() int64 {
	return int64(len(r.Payload)) + int64(len(r.RunID)) + entryOverhead
}

// Config configures a Cache.
type Config struct {
	// Budget bounds cached payload bytes; the least recently used entries are
	// evicted past it. Budget <= 0 stores nothing — coalescing stays active.
	Budget int64
}

// Stats is a consistent snapshot of cache activity. The counter fields are
// the same cells RegisterMetrics exposes, so /metrics and /v1/stats agree.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Coalesced      uint64 `json:"coalesced"`
	Promotions     uint64 `json:"promotions"`
	Evictions      uint64 `json:"evictions"`
	Invalidated    uint64 `json:"invalidated"`
	InsertsDropped uint64 `json:"inserts_dropped"`
	Entries        int    `json:"entries"`
	Bytes          int64  `json:"bytes"`
	BudgetBytes    int64  `json:"budget_bytes"`
	SeedEntries    int    `json:"seed_entries"`
	SeedBytes      int64  `json:"seed_bytes"`
	SeedsUsed      uint64 `json:"seeds_used"`
	SeedsDropped   uint64 `json:"seeds_dropped"`
}

// Cache is the query result cache. All methods are safe for concurrent use.
type Cache struct {
	budget int64

	mu      sync.Mutex
	lru     *list.List // *cacheEntry, front = most recent
	entries map[Key]*list.Element
	bytes   int64
	// retiredMax records, per graph, the highest store version retired so
	// far. Versions are minted monotonically and never reused, so an insert
	// at or below the tombstone is a late write for a dead version.
	retiredMax map[string]uint64
	// hardRetired is the analogous tombstone for the seed table: only hard
	// retirements (replace, delete) advance it, so seeds survive the warm
	// mutate/compact churn they exist to serve (see seed.go).
	hardRetired map[string]uint64
	seeds       map[seedKey]*seedEntry
	seedBytes   int64
	flights     map[Key]*flight

	hits, misses, coalesced uint64
	promotions              uint64
	evictions, invalidated  uint64
	insertsDropped          uint64
	seedsUsed, seedsDropped uint64
}

type cacheEntry struct {
	key   Key
	res   Result
	bytes int64
}

// New creates a Cache with the given configuration.
func New(cfg Config) *Cache {
	return &Cache{
		budget:      cfg.Budget,
		lru:         list.New(),
		entries:     make(map[Key]*list.Element),
		retiredMax:  make(map[string]uint64),
		hardRetired: make(map[string]uint64),
		seeds:       make(map[seedKey]*seedEntry),
		flights:     make(map[Key]*flight),
	}
}

// Get returns the cached result for k, refreshing its recency. A hit is
// counted; a miss is not (the caller's follow-up Do accounts for it).
func (c *Cache) Get(k Key) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.getLocked(k)
	if ok {
		c.hits++
	}
	return r, ok
}

func (c *Cache) getLocked(k Key) (Result, bool) {
	el, ok := c.entries[k]
	if !ok {
		return Result{}, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// insert stores r under k (with r.Version overriding k.Version when set).
// The qcache/insert failpoint sits at the head of the path: any fault there
// — injected error or panic — degrades the operation to a plain miss and is
// counted in InsertsDropped; it can never corrupt or poison the cache.
func (c *Cache) insert(k Key, r Result) {
	defer func() {
		if recover() != nil {
			c.mu.Lock()
			c.insertsDropped++
			c.mu.Unlock()
		}
	}()
	if err := fault.Inject("qcache/insert"); err != nil {
		c.mu.Lock()
		c.insertsDropped++
		c.mu.Unlock()
		return
	}
	if r.Version != 0 {
		k.Version = r.Version
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		return
	}
	if k.Version <= c.retiredMax[k.Graph] {
		// The version retired while the run was in flight; caching it would
		// pin a stale result forever.
		c.insertsDropped++
		return
	}
	if el, ok := c.entries[k]; ok {
		// Deterministic keys mean equal payloads; keep the resident entry.
		c.lru.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: k, res: r, bytes: r.MemoryBytes()}
	if e.bytes > c.budget {
		c.insertsDropped++
		return
	}
	c.entries[k] = c.lru.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.budget {
		c.evictOldestLocked()
	}
}

func (c *Cache) evictOldestLocked() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	c.removeLocked(el)
	c.evictions++
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// Stats returns a consistent snapshot of cache activity.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:           c.hits,
		Misses:         c.misses,
		Coalesced:      c.coalesced,
		Promotions:     c.promotions,
		Evictions:      c.evictions,
		Invalidated:    c.invalidated,
		InsertsDropped: c.insertsDropped,
		Entries:        c.lru.Len(),
		Bytes:          c.bytes,
		BudgetBytes:    c.budget,
		SeedEntries:    len(c.seeds),
		SeedBytes:      c.seedBytes,
		SeedsUsed:      c.seedsUsed,
		SeedsDropped:   c.seedsDropped,
	}
}
