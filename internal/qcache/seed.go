package qcache

import "container/list"

// Incremental-seed retention (DESIGN.md §15). A warm retirement — mutate —
// supersedes a version's cached *payloads* (the response body
// embeds the version number, so it really is stale) but not its *lanes*:
// the predecessor result is exactly the seed an incremental recompute on
// the successor starts from. The seed table keeps, per (graph, app,
// params), the newest such candidate. A hard retirement — replace or delete
// — ends the lineage, so it drops seeds too and raises a second tombstone
// that late OfferSeed calls for the dead lineage cannot cross.

type seedKey struct {
	Graph, App, Params string
}

type seedEntry struct {
	version uint64
	props   []uint64
}

const seedOverhead = 96 // map slot + key headers + entry

func (e *seedEntry) memoryBytes() int64 {
	return int64(len(e.props))*8 + seedOverhead
}

// OfferSeed records props as the (graph, app, params) result at version,
// making it available to SeedFor until a newer offer or a hard retirement
// replaces it. Offers at or below the graph's hard tombstone, or not newer
// than the resident candidate, are dropped. The slice is copied; callers
// keep ownership of theirs.
func (c *Cache) OfferSeed(graph, app, params string, version uint64, props []uint64) {
	if version == 0 || len(props) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if version <= c.hardRetired[graph] {
		c.seedsDropped++
		return
	}
	k := seedKey{Graph: graph, App: app, Params: params}
	if cur, ok := c.seeds[k]; ok {
		if version <= cur.version {
			return
		}
		c.seedBytes -= cur.memoryBytes()
	}
	e := &seedEntry{version: version, props: append([]uint64(nil), props...)}
	c.seeds[k] = e
	c.seedBytes += e.memoryBytes()
}

// SeedFor returns the newest retained seed candidate for (graph, app,
// params): the store version its lanes were computed on and the lanes
// themselves. The returned slice is shared and must be treated as
// read-only. A hit is counted only when the caller goes on to use it —
// see CountSeedUse.
func (c *Cache) SeedFor(graph, app, params string) (version uint64, props []uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.seeds[seedKey{Graph: graph, App: app, Params: params}]
	if !ok {
		return 0, nil, false
	}
	return e.version, e.props, true
}

// CountSeedUse bumps the seed-use counter surfaced in Stats; serving layers
// call it when a SeedFor candidate actually seeded a run.
func (c *Cache) CountSeedUse() {
	c.mu.Lock()
	c.seedsUsed++
	c.mu.Unlock()
}

// RetireVersion handles a store version retirement. Both flavors drop the
// graph's cached payloads at or below version and advance the late-insert
// tombstone. A warm retirement (reason mutate: same lineage,
// content still reachable from the successor via the delta log) keeps the
// seed table, so the retired result can warm-start recomputes on the
// successor. A hard retirement (replace, delete: lineage over) also drops
// the graph's seeds and advances the hard tombstone that blocks late
// offers. Wire it to Store.OnRetireReason.
func (c *Cache) RetireVersion(graph string, version uint64, warm bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version > c.retiredMax[graph] {
		c.retiredMax[graph] = version
	}
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.Graph == graph && e.key.Version <= version {
			c.removeLocked(el)
			c.invalidated++
		}
	}
	if warm {
		return
	}
	if version > c.hardRetired[graph] {
		c.hardRetired[graph] = version
	}
	for k, e := range c.seeds {
		if k.Graph == graph && e.version <= version {
			c.seedBytes -= e.memoryBytes()
			delete(c.seeds, k)
			c.seedsDropped++
		}
	}
}
