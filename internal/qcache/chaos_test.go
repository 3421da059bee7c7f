package qcache

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sched"
)

// Chaos coverage for the cache path: the qcache/insert failpoint proves a
// fault while caching degrades to a plain miss (result still correct, cache
// never poisoned), and the leader-cancellation test proves promotion keeps
// the admission slot accounting exact.

// TestInsertFaultDegradesToMiss: with qcache/insert armed, Do still returns
// the computed result but nothing is cached — the next identical call is a
// fresh miss, and the drop is counted.
func TestInsertFaultDegradesToMiss(t *testing.T) {
	for _, spec := range []string{"error", "panic"} {
		t.Run(spec, func(t *testing.T) {
			disarm, err := fault.Enable("qcache/insert", spec+"*1")
			if err != nil {
				t.Fatal(err)
			}
			defer disarm()

			c := New(Config{Budget: 1 << 20})
			k := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}
			calls := 0
			compute := func(context.Context) (Result, error) {
				calls++
				return payload(10, "r"), nil
			}

			r, o, err := c.Do(context.Background(), k, compute)
			if err != nil || o != OutcomeMiss || !bytes.Equal(r.Payload, bytes.Repeat([]byte("r"), 10)) {
				t.Fatalf("faulted Do: res %q outcome %v err %v", r.Payload, o, err)
			}
			st := c.Stats()
			if st.Entries != 0 || st.InsertsDropped != 1 {
				t.Fatalf("after faulted insert: %+v", st)
			}
			if fault.Hits("qcache/insert") != 1 {
				t.Fatalf("failpoint hits = %d", fault.Hits("qcache/insert"))
			}

			// The shot budget is spent: the retry computes again and caches.
			if _, o, err := c.Do(context.Background(), k, compute); err != nil || o != OutcomeMiss {
				t.Fatalf("retry: outcome %v err %v", o, err)
			}
			if calls != 2 {
				t.Fatalf("compute calls = %d, want 2", calls)
			}
			if _, o, err := c.Do(context.Background(), k, compute); err != nil || o != OutcomeHit {
				t.Fatalf("post-retry: outcome %v err %v, want hit", o, err)
			}
		})
	}
}

// TestLeaderCancelChaosPromotion: a leader holding an admission slot is
// cancelled mid-run; the promoted follower re-admits under its own ctx and
// serves the result. Slot accounting stays exact: two admissions total, zero
// in flight afterwards, no rejections.
func TestLeaderCancelChaosPromotion(t *testing.T) {
	adm := sched.NewAdmission(1, 4)
	c := New(Config{Budget: 1 << 20})
	k := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}

	var mu sync.Mutex
	runs := 0
	started := make(chan struct{}, 2)
	compute := func(ctx context.Context) (Result, error) {
		release, err := adm.Acquire(ctx)
		if err != nil {
			return Result{}, err
		}
		defer release()
		mu.Lock()
		runs++
		n := runs
		mu.Unlock()
		started <- struct{}{}
		if n == 1 {
			<-ctx.Done()
			return Result{}, ctx.Err()
		}
		return payload(10, "r"), nil
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, k, compute)
		leaderErr <- err
	}()
	<-started

	follower := make(chan error, 1)
	var out Outcome
	go func() {
		_, o, err := c.Do(context.Background(), k, compute)
		out = o
		follower <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		w := 0
		if f := c.flights[k]; f != nil {
			w = f.waiters
		}
		c.mu.Unlock()
		if w == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never attached")
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v", err)
	}
	if err := <-follower; err != nil {
		t.Fatalf("promoted follower err = %v", err)
	}
	if out != OutcomeMiss {
		t.Errorf("promoted follower outcome %v, want miss", out)
	}

	if got := adm.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after both runs finished, want 0", got)
	}
	if got := adm.Admitted(); got != 2 {
		t.Errorf("Admitted = %d, want 2 (leader + promoted leader)", got)
	}
	if got := adm.Rejected(); got != 0 {
		t.Errorf("Rejected = %d, want 0", got)
	}
	if st := c.Stats(); st.Promotions != 1 {
		t.Errorf("Promotions = %d, want 1", st.Promotions)
	}
}

// TestComputePanicSharedWithFollowers: a compute panic reaches the leader's
// recovery layer as a panic (so serve's middleware writes its 500) while
// followers receive it as a *sched.PanicError — nobody hangs.
func TestComputePanicSharedWithFollowers(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	k := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}

	armed := make(chan struct{})
	compute := func(context.Context) (Result, error) {
		<-armed
		panic("kaboom")
	}

	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		c.Do(context.Background(), k, compute)
	}()
	// Make sure the first goroutine holds leadership before the second joins.
	flightUp := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, up := c.flights[k]
		c.mu.Unlock()
		if up {
			break
		}
		if time.Now().After(flightUp) {
			t.Fatal("leader never opened the flight")
		}
		time.Sleep(time.Millisecond)
	}
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), k, compute)
		followerErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		w := 0
		if f := c.flights[k]; f != nil {
			w = f.waiters
		}
		c.mu.Unlock()
		if w == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never attached")
		}
		time.Sleep(time.Millisecond)
	}
	close(armed)

	if rec := <-leaderPanicked; rec == nil || !strings.Contains(rec.(string), "kaboom") {
		t.Fatalf("leader panic = %v, want kaboom to propagate", rec)
	}
	err := <-followerErr
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("follower err = %v, want *sched.PanicError", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("panic outcome cached: %+v", st)
	}
	// The flight is gone; the next call starts fresh.
	if _, o, err := c.Do(context.Background(), k, func(context.Context) (Result, error) {
		return payload(3, "n"), nil
	}); err != nil || o != OutcomeMiss {
		t.Errorf("post-panic Do: outcome %v err %v", o, err)
	}
}
