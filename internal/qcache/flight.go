package qcache

import (
	"context"
	"errors"

	"repro/internal/sched"
)

// This file is the single-flight half of the cache: concurrent Do calls for
// the same key share one compute. The first caller becomes the leader and
// runs compute under its own context; later callers attach as followers and
// wait. Coalesced requests therefore consume one admission slot, not N —
// admission happens inside compute, which only the leader runs.
//
// A leader whose own context ends mid-compute settles its flight as
// abandoned rather than failing its followers with its error: each follower
// still waiting retries under its own context, the first one starting a
// fresh flight and the rest attaching to it. One impatient client can't
// starve the rest, and every flight is settled by the call that started it,
// so none is ever left indexed without a leader.

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

// flight is one in-flight compute, settled once by the call that leads it.
type flight struct {
	// done is closed exactly once, after res/err are set, when the leader
	// settles the flight.
	done chan struct{}
	res  Result
	err  error
}

// errAbandoned is the error of a flight whose leader's own context ended
// mid-compute; its followers retry instead of returning it.
var errAbandoned = errors.New("qcache: flight abandoned by its leader")

// Do returns the result for k, serving from cache, attaching to an in-flight
// compute, or running compute itself. compute receives the caller's ctx and
// is only invoked by a flight's leader; its error (or panic, republished to
// followers as a *sched.PanicError before re-panicking) is shared by every
// attached caller. A leader whose own ctx ends mid-run keeps what its
// compute returned (the failed run's ID, the ctx error) to itself and
// abandons the flight, and its followers retry (see follow).
func (c *Cache) Do(ctx context.Context, k Key, compute func(context.Context) (Result, error)) (Result, Outcome, error) {
	c.mu.Lock()
	if r, ok := c.getLocked(k); ok {
		c.hits++
		c.mu.Unlock()
		return r, OutcomeHit, nil
	}
	if f, ok := c.flights[k]; ok {
		c.coalesced++
		c.mu.Unlock()
		return c.follow(ctx, k, f, compute)
	}
	c.misses++
	return c.leadFlight(ctx, k, compute)
}

// leadFlight indexes a fresh flight for k, runs compute as its leader and
// settles it. c.mu is held on entry and released here.
func (c *Cache) leadFlight(ctx context.Context, k Key, compute func(context.Context) (Result, error)) (Result, Outcome, error) {
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()
	res, err := c.runCompute(ctx, k, f, compute)
	switch {
	case err == nil:
		c.insert(k, res)
		c.publish(k, f, res, nil)
	case ctx.Err() != nil:
		// The leader's own context died; its followers are healthy.
		c.publish(k, f, Result{}, errAbandoned)
	default:
		c.publish(k, f, res, err)
	}
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
// fresh, stores the outcome, and wakes every follower. A flight stays indexed
// from leadFlight to its one publish, and no other flight for k is indexed
// meanwhile, so the index entry removed is f's.
func (c *Cache) publish(k Key, f *flight, res Result, err error) {
	c.mu.Lock()
	delete(c.flights, k)
	f.res, f.err = res, err
	close(f.done)
	c.mu.Unlock()
}

// follow waits on a flight as a follower until it settles or the caller's
// own deadline passes. When the flight was abandoned, the follower looks k
// up again under its own context: it attaches to a newer flight if one is
// indexed, and otherwise leads a fresh one, counted as a promotion. The call
// was counted once, as coalesced, when it first attached.
func (c *Cache) follow(ctx context.Context, k Key, f *flight, compute func(context.Context) (Result, error)) (Result, Outcome, error) {
	for {
		select {
		case <-f.done:
		case <-ctx.Done():
			return Result{}, OutcomeCoalesced, ctx.Err()
		}
		if f.err != errAbandoned {
			return f.res, OutcomeCoalesced, f.err
		}
		c.mu.Lock()
		if r, ok := c.getLocked(k); ok {
			c.mu.Unlock()
			return r, OutcomeCoalesced, nil
		}
		next, ok := c.flights[k]
		if !ok {
			c.promotions++
			return c.leadFlight(ctx, k, compute)
		}
		c.mu.Unlock()
		f = next
	}
}
