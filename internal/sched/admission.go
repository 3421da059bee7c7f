package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrOverloaded is the sentinel matched by errors.Is against the typed
// *OverloadedError an Admission returns when both the in-flight and queue
// bounds are exhausted. Serving layers map it to a backpressure status
// (HTTP 429).
var ErrOverloaded = errors.New("sched: overloaded")

// OverloadedError reports an admission rejection with the observed load at
// rejection time. It matches ErrOverloaded under errors.Is.
type OverloadedError struct {
	// InFlight and Queued are the occupancy observed at rejection.
	InFlight, Queued int
	// MaxInFlight and MaxQueue are the configured bounds.
	MaxInFlight, MaxQueue int
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("sched: overloaded: %d/%d in flight, %d/%d queued",
		e.InFlight, e.MaxInFlight, e.Queued, e.MaxQueue)
}

// Is reports that an OverloadedError matches the ErrOverloaded sentinel.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Admission is a two-stage admission controller for query-shaped work: at
// most MaxInFlight units run concurrently, at most MaxQueue more wait for a
// slot, and everything beyond that is rejected immediately with a typed
// *OverloadedError. It is the only in-flight bound: Pool caps no job count.
// The store admits every query through an Admission before its run touches
// the shared pool, and a run submits one job at a time, so at most
// MaxInFlight queries' jobs are ever active.
type Admission struct {
	maxInFlight, maxQueue int
	// sem holds one token per in-flight unit.
	sem chan struct{}
	// queued counts waiters; admitted counts successful admissions and
	// rejected counts refusals (both monotonic).
	queued   atomic.Int64
	admitted atomic.Uint64
	rejected atomic.Uint64
}

// NewAdmission creates a controller admitting maxInFlight concurrent units
// with a wait queue of maxQueue. maxInFlight < 1 disables limiting (Acquire
// always succeeds); maxQueue < 0 is treated as 0 (no waiting: reject as soon
// as the in-flight bound is hit).
func NewAdmission(maxInFlight, maxQueue int) *Admission {
	a := &Admission{maxInFlight: maxInFlight, maxQueue: maxQueue}
	if maxQueue < 0 {
		a.maxQueue = 0
	}
	if maxInFlight > 0 {
		a.sem = make(chan struct{}, maxInFlight)
	}
	return a
}

// Acquire admits one unit of work, blocking in the wait queue when the
// in-flight bound is reached. It returns a release function to call when the
// unit finishes; release is idempotent, so layered cleanup paths (deferred
// release plus an explicit early release on handoff) cannot double-free a
// slot. Errors: a typed *OverloadedError (matching ErrOverloaded) when the
// queue is also full, or ctx.Err() when the caller's context ends while
// queued. A nil *Admission admits everything.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	if a.sem == nil {
		a.admitted.Add(1)
		return func() {}, nil
	}
	// Fast path: an in-flight slot is free.
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return a.releaseOnce(), nil
	default:
	}
	// Slow path: join the bounded wait queue, or reject.
	for {
		q := a.queued.Load()
		if q >= int64(a.maxQueue) {
			a.rejected.Add(1)
			return nil, &OverloadedError{
				InFlight:    len(a.sem),
				Queued:      int(q),
				MaxInFlight: a.maxInFlight,
				MaxQueue:    a.maxQueue,
			}
		}
		if a.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	defer a.queued.Add(-1)
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return a.releaseOnce(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// releaseOnce wraps the slot return so calling the release more than once is
// a no-op rather than a stolen slot.
func (a *Admission) releaseOnce() func() {
	var once sync.Once
	return func() { once.Do(func() { <-a.sem }) }
}

// InFlight returns the number of admitted, unreleased units.
func (a *Admission) InFlight() int {
	if a == nil || a.sem == nil {
		return 0
	}
	return len(a.sem)
}

// Queued returns the number of callers waiting for admission.
func (a *Admission) Queued() int {
	if a == nil {
		return 0
	}
	return int(a.queued.Load())
}

// Admitted returns the cumulative count of successful admissions.
func (a *Admission) Admitted() uint64 {
	if a == nil {
		return 0
	}
	return a.admitted.Load()
}

// Rejected returns the cumulative count of overload rejections.
func (a *Admission) Rejected() uint64 {
	if a == nil {
		return 0
	}
	return a.rejected.Load()
}

// MaxInFlight returns the configured in-flight bound (0 = unlimited).
func (a *Admission) MaxInFlight() int {
	if a == nil {
		return 0
	}
	return a.maxInFlight
}

// MaxQueue returns the configured queue bound.
func (a *Admission) MaxQueue() int {
	if a == nil {
		return 0
	}
	return a.maxQueue
}
