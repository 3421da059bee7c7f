package service

import (
	"context"
	"fmt"

	grazelle "repro"
	"repro/internal/qcache"
)

// BatchResult is one batch entry's outcome, aligned by index with the
// request's queries: Err set, or Outcome hit / miss / coalesced with the
// entry's full query response (the same bytes a single Execute returns).
type BatchResult struct {
	Result  qcache.Result
	Outcome Outcome
	Err     error
}

// ExecuteBatch runs a list of queries under one deadline. Identical entries
// are deduped within the batch (in-batch duplicates of a computed entry
// report coalesced, same as concurrent identical queries), cache hits are
// served immediately, and the distinct misses run sequentially through the
// spine over a single pinned store handle per graph — one acquire, one
// rehydration at most, instead of one per entry.
func (s *Service) ExecuteBatch(ctx context.Context, queries []Query, timeoutMS int64) []BatchResult {
	ctx, cancel := s.deadline(ctx, timeoutMS)
	defer cancel()

	// Dedupe by canonical identity: entries that would share a cache key
	// (same graph, app, canonical params, values, bypass choice) compute
	// once; later duplicates alias the first slot.
	type slot struct {
		q       Query
		key     qcache.Key
		indexes []int
	}
	var order []*slot
	seen := make(map[string]*slot)
	out := make([]BatchResult, len(queries))
	for i, q := range queries {
		if err := q.normalize(); err != nil {
			out[i].Err = err
			continue
		}
		id := fmt.Sprintf("%s|%s|%s|%t", q.Graph, q.App, q.cacheParams(), q.NoCache)
		if sl, ok := seen[id]; ok {
			sl.indexes = append(sl.indexes, i)
			continue
		}
		sl := &slot{q: q, indexes: []int{i}}
		seen[id] = sl
		order = append(order, sl)
	}
	fill := func(sl *slot, res qcache.Result, outcome Outcome, err error) {
		for n, i := range sl.indexes {
			if err == nil && n > 0 && outcome != Hit {
				outcome = Coalesced // a duplicate of a computed entry rode along for free
			}
			out[i] = BatchResult{Result: res, Outcome: outcome, Err: err}
		}
	}

	// Pass 1: serve what the cache already holds.
	var misses []*slot
	for _, sl := range order {
		if s.cfg.Cache != nil && !sl.q.NoCache {
			var err error
			if sl.key, err = s.cacheKey(&sl.q); err != nil {
				fill(sl, qcache.Result{}, "", err)
				continue
			}
			if res, ok := s.cfg.Cache.Get(sl.key); ok {
				fill(sl, res, Hit, nil)
				continue
			}
		}
		misses = append(misses, sl)
	}

	// Pass 2: run the distinct misses over one pinned handle per graph. Going
	// through Do keeps batch entries coalescible with concurrent single
	// queries; admission still gates each actual run inside the spine.
	handles := make(map[string]*grazelle.StoreHandle)
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	for _, sl := range misses {
		if ctx.Err() != nil {
			fill(sl, qcache.Result{}, "", ctx.Err())
			continue
		}
		h, ok := handles[sl.q.Graph]
		if !ok {
			var err error
			if h, err = s.cfg.Store.Acquire(sl.q.Graph); err != nil {
				fill(sl, qcache.Result{}, "", err)
				continue
			}
			handles[sl.q.Graph] = h
		}
		compute := func(cctx context.Context) (qcache.Result, error) {
			res, _, err := s.compute(cctx, &sl.q, h, nil)
			return res, err
		}
		if s.cfg.Cache == nil || sl.q.NoCache {
			res, err := compute(ctx)
			fill(sl, res, Miss, err)
			continue
		}
		res, outcome, err := s.cfg.Cache.Do(ctx, sl.key, compute)
		fill(sl, res, Outcome(outcome.String()), err)
	}
	return out
}
