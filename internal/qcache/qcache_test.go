package qcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func payload(n int, tag string) Result {
	return Result{Payload: bytes.Repeat([]byte(tag[:1]), n), RunID: tag}
}

// waitUntil polls cond every millisecond, failing the test if it does not
// hold within five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// flightLive reports whether a flight for k is indexed.
func flightLive(c *Cache, k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.flights[k]
	return ok
}

// Canonical-parameter derivation lives with the app registry now
// (apps.Entry.Canonical); internal/apps/registry_test.go holds the
// table-driven ignored-field tests. The cache treats Params as opaque.

func TestLRUBudgetEviction(t *testing.T) {
	res := payload(100, "a")
	per := res.MemoryBytes()
	c := New(Config{Budget: 3 * per})
	key := func(i int) Key { return Key{Graph: "g", Version: 1, App: "pr", Params: fmt.Sprint(i)} }

	for i := 0; i < 3; i++ {
		c.insert(key(i), payload(100, "a"))
	}
	st := c.Stats()
	if st.Entries != 3 || st.Bytes != 3*per || st.Evictions != 0 {
		t.Fatalf("after 3 inserts: %+v", st)
	}

	// Touch key 0 so key 1 is now the LRU victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 missing")
	}
	c.insert(key(3), payload(100, "a"))
	st = c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("after overflow insert: %+v", st)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Error("LRU victim key 1 survived")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Errorf("key %d evicted out of LRU order", i)
		}
	}

	// An entry bigger than the whole budget is refused, not thrashed in.
	before := c.Stats()
	c.insert(Key{Graph: "g", Version: 1, App: "pr", Params: "big"}, payload(int(3*per), "b"))
	st = c.Stats()
	if st.Entries != before.Entries || st.InsertsDropped != before.InsertsDropped+1 {
		t.Errorf("oversize insert: %+v (before %+v)", st, before)
	}

	// Budget <= 0 stores nothing.
	z := New(Config{Budget: 0})
	z.insert(key(0), payload(10, "a"))
	if st := z.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("zero-budget cache stored an entry: %+v", st)
	}
}

func TestInvalidateVersionAndTombstone(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	k1 := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}
	k2 := Key{Graph: "g", Version: 2, App: "pr", Params: "x"}
	other := Key{Graph: "h", Version: 1, App: "pr", Params: "x"}
	c.insert(k1, payload(10, "a"))
	c.insert(other, payload(10, "b"))

	c.RetireVersion("g", 1, false)
	if _, ok := c.Get(k1); ok {
		t.Error("retired version still served")
	}
	if _, ok := c.Get(other); !ok {
		t.Error("unrelated graph invalidated")
	}
	if st := c.Stats(); st.Invalidated != 1 {
		t.Errorf("Invalidated = %d, want 1", st.Invalidated)
	}

	// A run that finishes after its version retired must not cache: the
	// tombstone drops the late insert.
	c.insert(k1, payload(10, "a"))
	if _, ok := c.Get(k1); ok {
		t.Error("late insert for a retired version was cached")
	}
	if st := c.Stats(); st.InsertsDropped != 1 {
		t.Errorf("InsertsDropped = %d, want 1", st.InsertsDropped)
	}

	// The successor version is cacheable.
	c.insert(k2, payload(10, "a"))
	if _, ok := c.Get(k2); !ok {
		t.Error("successor version not cached")
	}
}

// TestDoCoalescing: N concurrent identical requests run compute exactly once
// and share its result; counters split 1 miss / N-1 coalesced.
func TestDoCoalescing(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	k := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}
	const n = 8

	var computes int32
	var mu sync.Mutex
	attached := make(chan struct{})
	compute := func(ctx context.Context) (Result, error) {
		mu.Lock()
		computes++
		mu.Unlock()
		<-attached // hold the flight open until every follower has joined
		return payload(10, "r"), nil
	}

	var wg sync.WaitGroup
	results := make([]Result, n)
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, o, err := c.Do(context.Background(), k, compute)
			if err != nil {
				t.Errorf("Do %d: %v", i, err)
			}
			results[i], outcomes[i] = r, o
		}(i)
	}
	// Wait until all n calls are attached (1 leading + n-1 coalesced), then
	// release the leader.
	waitUntil(t, "followers attached", func() bool { return c.Stats().Coalesced == n-1 })
	close(attached)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	misses, coalesced := 0, 0
	for i := range results {
		if !bytes.Equal(results[i].Payload, results[0].Payload) {
			t.Fatalf("result %d diverges", i)
		}
		switch outcomes[i] {
		case OutcomeMiss:
			misses++
		case OutcomeCoalesced:
			coalesced++
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Errorf("outcomes: %d miss / %d coalesced, want 1 / %d", misses, coalesced, n-1)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 {
		t.Errorf("stats: %+v", st)
	}

	// The flight settled into the cache: the next call is a pure hit.
	if _, o, err := c.Do(context.Background(), k, compute); err != nil || o != OutcomeHit {
		t.Errorf("post-flight Do: outcome %v err %v, want hit", o, err)
	}
}

// TestFollowerDeadline: a follower's own ctx deadline releases it while the
// flight keeps running for everyone else.
func TestFollowerDeadline(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	k := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}
	release := make(chan struct{})
	compute := func(ctx context.Context) (Result, error) {
		<-release
		return payload(10, "r"), nil
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), k, compute)
		leaderDone <- err
	}()
	waitUntil(t, "leader opened the flight", func() bool { return flightLive(c, k) })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, o, err := c.Do(ctx, k, compute)
	if !errors.Is(err, context.DeadlineExceeded) || o != OutcomeCoalesced {
		t.Fatalf("follower: outcome %v err %v, want coalesced deadline", o, err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after follower left: %v", err)
	}
}

// TestLeaderCancelPromotion: cancelling the leader's ctx mid-run promotes a
// waiting follower, which re-runs compute under its own ctx and gets the
// result; the cancelled leader gets only its own ctx error.
func TestLeaderCancelPromotion(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	k := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}

	var mu sync.Mutex
	var runs int
	started := make(chan struct{}, 2)
	compute := func(ctx context.Context) (Result, error) {
		mu.Lock()
		runs++
		n := runs
		mu.Unlock()
		started <- struct{}{}
		if n == 1 {
			<-ctx.Done() // first run blocks until its caller is cancelled
			return Result{}, ctx.Err()
		}
		return payload(10, "r"), nil
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, k, compute)
		leaderDone <- err
	}()
	<-started // leader is computing

	followerDone := make(chan struct{})
	var fRes Result
	var fOut Outcome
	var fErr error
	go func() {
		defer close(followerDone)
		fRes, fOut, fErr = c.Do(context.Background(), k, compute)
	}()
	// Wait for the follower to attach before cancelling the leader.
	waitUntil(t, "follower attached", func() bool { return c.Stats().Coalesced == 1 })

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want canceled", err)
	}
	<-followerDone
	if fErr != nil {
		t.Fatalf("promoted follower err: %v", fErr)
	}
	if fOut != OutcomeMiss {
		t.Errorf("promoted follower outcome %v, want miss (it ran compute)", fOut)
	}
	if string(fRes.Payload) == "" {
		t.Error("promoted follower got no payload")
	}
	if runs != 2 {
		t.Errorf("compute ran %d times, want 2 (leader + promoted)", runs)
	}
	if st := c.Stats(); st.Promotions != 1 {
		t.Errorf("Promotions = %d, want 1", st.Promotions)
	}
	// The promoted run cached its result.
	if _, ok := c.Get(k); !ok {
		t.Error("promoted run's result not cached")
	}
}

// TestAbandonedOrphanFlight: a leader is cancelled and its only follower's
// context ends too. Whatever the follower did — left, or retried and gave
// up under its own dead context — no flight is left indexed, and the next
// call is a fresh miss rather than an attach to a settled flight.
func TestAbandonedOrphanFlight(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	k := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}
	started := make(chan struct{}, 1)
	block := func(ctx context.Context) (Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return Result{}, ctx.Err()
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, k, block)
		leaderErr <- err
	}()
	<-started
	followerCtx, cancelFollower := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(followerCtx, k, block)
		followerErr <- err
	}()
	waitUntil(t, "follower attached", func() bool { return c.Stats().Coalesced == 1 })

	cancelLeader()
	cancelFollower()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want canceled", err)
	}
	if err := <-followerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want canceled", err)
	}
	if flightLive(c, k) {
		t.Fatal("abandoned flight still indexed")
	}

	// A fresh Do computes anew.
	r, o, err := c.Do(context.Background(), k, func(context.Context) (Result, error) {
		return payload(5, "n"), nil
	})
	if err != nil || o != OutcomeMiss || len(r.Payload) != 5 {
		t.Errorf("post-orphan Do: %v %v %v", r, o, err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("Misses = %d, want 2 (the cancelled leader and the fresh call)", st.Misses)
	}
}

// TestResultVersionOverride: a compute that reports the version it actually
// ran on caches under that version, not the (possibly stale) flight key's.
func TestResultVersionOverride(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	k := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}
	r := payload(10, "r")
	r.Version = 2
	if _, _, err := c.Do(context.Background(), k, func(context.Context) (Result, error) {
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(Key{Graph: "g", Version: 2, App: "pr", Params: "x"}); !ok {
		t.Error("result not cached under its computed-on version")
	}
	if _, ok := c.Get(k); ok {
		t.Error("result cached under the stale key version")
	}
}

// TestDoErrorNotCached: a failed compute is shared with followers but never
// cached; the next call retries.
func TestDoErrorNotCached(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	k := Key{Graph: "g", Version: 1, App: "pr", Params: "x"}
	boom := errors.New("boom")
	calls := 0
	compute := func(context.Context) (Result, error) {
		calls++
		return Result{}, boom
	}
	if _, _, err := c.Do(context.Background(), k, compute); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.Do(context.Background(), k, compute); !errors.Is(err, boom) {
		t.Fatalf("second err = %v", err)
	}
	if calls != 2 {
		t.Errorf("compute calls = %d, want 2 (errors are not cached)", calls)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("error cached: %+v", st)
	}
}
