package qcache

import (
	"context"

	"repro/internal/sched"
)

// This file is the single-flight half of the cache: concurrent Do calls for
// the same key share one compute. The first caller becomes the leader and
// runs compute under its own context; later callers attach as followers and
// wait. Coalesced requests therefore consume one admission slot, not N —
// admission happens inside compute, which only the leader runs.
//
// Leadership is a token, not a lifetime: a leader whose own context dies
// while followers wait posts the token into the flight, and one waiting
// follower picks it up and re-runs compute under its own context. One
// impatient client can't starve the rest. The token lives in a 1-buffered
// channel; `leading` and `waiters` (guarded by Cache.mu) track whether
// someone is computing and how many are waiting, which is what lets the last
// departing follower detect an orphaned flight and clean it up.

// Outcome classifies how Do satisfied a request.
type Outcome int

const (
	// OutcomeHit: served from the cache without running compute.
	OutcomeHit Outcome = iota
	// OutcomeMiss: this call ran compute (as initial or promoted leader).
	OutcomeMiss
	// OutcomeCoalesced: attached to another call's in-flight compute.
	OutcomeCoalesced
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	default:
		return "coalesced"
	}
}

// flight is one in-flight compute and the callers attached to it.
type flight struct {
	// done is closed exactly once, after res/err are set, when a result (or
	// terminal error) is published to the attached followers.
	done chan struct{}
	res  Result
	err  error
	// lead carries the leadership token when a cancelled leader abdicates.
	lead chan struct{}
	// waiters and leading are guarded by Cache.mu. waiters counts attached
	// followers (including one that took the token but hasn't re-entered the
	// lock yet — it decrements itself only when it flips leading back on, so
	// the orphan check below can't misfire mid-promotion).
	waiters int
	leading bool
}

// Do returns the result for k, serving from cache, attaching to an in-flight
// compute, or running compute itself. compute receives the caller's ctx and
// is only invoked by the call that holds leadership; its error (or panic,
// republished to followers as a *sched.PanicError before re-panicking) is
// shared by every attached caller. A leader whose own ctx ends mid-run hands
// leadership to a waiting follower and keeps what its compute returned (the
// failed run's ID, the ctx error) to itself.
func (c *Cache) Do(ctx context.Context, k Key, compute func(context.Context) (Result, error)) (Result, Outcome, error) {
	c.mu.Lock()
	if r, ok := c.getLocked(k); ok {
		c.hits++
		c.mu.Unlock()
		return r, OutcomeHit, nil
	}
	f, ok := c.flights[k]
	if !ok {
		f = &flight{done: make(chan struct{}), lead: make(chan struct{}, 1), leading: true}
		c.flights[k] = f
		c.misses++
		c.mu.Unlock()
		return c.leadFlight(ctx, k, f, compute)
	}
	f.waiters++
	c.coalesced++
	c.mu.Unlock()
	return c.follow(ctx, k, f, compute)
}

// leadFlight runs compute as the flight's leader and settles the flight.
func (c *Cache) leadFlight(ctx context.Context, k Key, f *flight, compute func(context.Context) (Result, error)) (Result, Outcome, error) {
	res, err := c.runCompute(ctx, k, f, compute)
	if err != nil && ctx.Err() != nil {
		// The leader's own context died. Followers are healthy — hand one of
		// them the leadership token instead of failing them all.
		c.abdicate(k, f, err)
		return res, OutcomeMiss, err
	}
	if err == nil {
		c.insert(k, res)
	}
	c.publish(k, f, res, err)
	return res, OutcomeMiss, err
}

// runCompute invokes compute, converting a panic into a *sched.PanicError
// for the followers before letting it continue up to the caller's recovery
// layer — one crashing run must not strand N-1 coalesced clients.
func (c *Cache) runCompute(ctx context.Context, k Key, f *flight, compute func(context.Context) (Result, error)) (res Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			c.publish(k, f, Result{}, sched.NewPanicError(rec))
			panic(rec)
		}
	}()
	return compute(ctx)
}

// publish settles the flight: removes it from the index so new callers start
// fresh, stores the outcome, and wakes every follower.
func (c *Cache) publish(k Key, f *flight, res Result, err error) {
	c.mu.Lock()
	if c.flights[k] == f {
		delete(c.flights, k)
	}
	f.res, f.err = res, err
	close(f.done)
	c.mu.Unlock()
}

// abdicate hands leadership off after the leader's ctx died: with waiters
// present the token is posted for one of them to claim; with none the flight
// is settled with the leader's error.
func (c *Cache) abdicate(k Key, f *flight, err error) {
	c.mu.Lock()
	if f.waiters == 0 {
		if c.flights[k] == f {
			delete(c.flights, k)
		}
		f.err = err
		close(f.done)
		c.mu.Unlock()
		return
	}
	f.leading = false
	f.lead <- struct{}{} // cap 1; only ever posted by the abdicating leader
	c.mu.Unlock()
}

// follow waits on a flight as a follower: for the published result, for the
// leadership token (promotion), or for the caller's own deadline.
func (c *Cache) follow(ctx context.Context, k Key, f *flight, compute func(context.Context) (Result, error)) (Result, Outcome, error) {
	select {
	case <-f.done:
		c.mu.Lock()
		f.waiters--
		c.mu.Unlock()
		return f.res, OutcomeCoalesced, f.err
	case <-f.lead:
		c.mu.Lock()
		f.waiters--
		f.leading = true
		c.promotions++
		c.mu.Unlock()
		return c.leadFlight(ctx, k, f, compute)
	case <-ctx.Done():
		c.abandonFollower(k, f, ctx.Err())
		return Result{}, OutcomeCoalesced, ctx.Err()
	}
}

// abandonFollower detaches a follower whose own ctx died. If it was the last
// waiter and the leadership token is sitting unclaimed (the leader already
// abdicated), the flight is orphaned: settle and drop it so later callers
// start a fresh run.
func (c *Cache) abandonFollower(k Key, f *flight, err error) {
	c.mu.Lock()
	f.waiters--
	if f.waiters == 0 && !f.leading {
		select {
		case <-f.lead:
			if c.flights[k] == f {
				delete(c.flights, k)
			}
			f.err = err
			close(f.done)
		default:
		}
	}
	c.mu.Unlock()
}
