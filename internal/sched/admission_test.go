package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmissionBounds(t *testing.T) {
	a := NewAdmission(2, 1)

	rel1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Third acquire queues; it must complete once a slot is released.
	acquired := make(chan func(), 1)
	go func() {
		rel, err := a.Acquire(context.Background())
		if err != nil {
			t.Error(err)
		}
		acquired <- rel
	}()
	for a.Queued() != 1 {
		time.Sleep(time.Millisecond)
	}

	// Fourth acquire finds the queue full: typed overload error.
	_, err = a.Acquire(context.Background())
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v, want *OverloadedError", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("error %v does not match ErrOverloaded", err)
	}
	if oe.MaxInFlight != 2 || oe.MaxQueue != 1 {
		t.Errorf("overload error limits = %d/%d, want 2/1", oe.MaxInFlight, oe.MaxQueue)
	}
	if a.Rejected() != 1 {
		t.Errorf("Rejected = %d, want 1", a.Rejected())
	}

	rel1()
	rel3 := <-acquired
	rel2()
	rel3()
	if got := a.InFlight(); got != 0 {
		t.Errorf("InFlight after release = %d, want 0", got)
	}
}

func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := NewAdmission(1, 4)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		errc <- err
	}()
	for a.Queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire returned %v, want context.Canceled", err)
	}
	if a.Queued() != 0 {
		t.Errorf("Queued after cancel = %d, want 0", a.Queued())
	}
	rel()
}

func TestAdmissionUnlimited(t *testing.T) {
	for _, a := range []*Admission{nil, NewAdmission(0, 0)} {
		for i := 0; i < 100; i++ {
			rel, err := a.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rel()
		}
	}
}

func TestAdmissionConcurrentNeverExceedsBound(t *testing.T) {
	const maxInFlight = 3
	a := NewAdmission(maxInFlight, 64)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := a.Acquire(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			rel()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > maxInFlight {
		t.Errorf("peak concurrency %d exceeds bound %d", p, maxInFlight)
	}
}

func TestScatterBufferMergeOrder(t *testing.T) {
	b := NewScatterBuffer(2)
	b.Grow(3)

	s2 := b.Take(2)
	s2 = append(s2, Contribution{Dst: 7, Val: 30})
	b.Save(2, s2)
	s0 := b.Take(0)
	s0 = append(s0, Contribution{Dst: 7, Val: 10}, Contribution{Dst: 3, Val: 1})
	b.Save(0, s0)
	// Slot 1 left empty.

	var order []Contribution
	n := b.Merge(func(dst uint32, v uint64) {
		order = append(order, Contribution{Dst: dst, Val: v})
	})
	if n != 3 {
		t.Fatalf("Merge folded %d contributions, want 3", n)
	}
	want := []Contribution{{7, 10}, {3, 1}, {7, 30}}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("merge order[%d] = %v, want %v (chunk-id then append order)", i, order[i], w)
		}
	}
	// Slots are reusable and empty after Merge.
	if again := b.Merge(func(uint32, uint64) {}); again != 0 {
		t.Errorf("second Merge folded %d contributions, want 0", again)
	}
	if s := b.Take(0); len(s) != 0 || cap(s) < 2 {
		t.Errorf("slot storage not retained: len=%d cap=%d", len(s), cap(s))
	}
}

// TestAdmissionChurnExactAccounting hammers an Admission with 1000 mixed
// runs — successes, panics (recovered by the pool), and cancellations while
// queued — and verifies the slot accounting is exact afterwards: nothing in
// flight, nothing queued, and the full capacity immediately re-admittable.
func TestAdmissionChurnExactAccounting(t *testing.T) {
	const (
		maxInFlight = 4
		maxQueue    = 8
		total       = 1000
	)
	a := NewAdmission(maxInFlight, maxQueue)
	p := NewPool(4)
	defer p.Close()

	var wg sync.WaitGroup
	var succeeded, panicked, cancelled, rejected atomic.Int64
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%5 == 4 {
				// Cancel shortly after (possibly while) queueing.
				go func() {
					time.Sleep(time.Duration(i%3) * 50 * time.Microsecond)
					cancel()
				}()
			}
			release, err := a.Acquire(ctx)
			if err != nil {
				switch {
				case errors.Is(err, ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
				default:
					t.Errorf("Acquire: unexpected error %v", err)
				}
				return
			}
			defer release()
			err = p.Run(func(tid int) {
				if i%7 == 3 && tid == 2 {
					panic("churn")
				}
			})
			if err == nil {
				err = ctx.Err()
			}
			var pe *PanicError
			switch {
			case errors.As(err, &pe):
				panicked.Add(1)
			case err == nil:
				succeeded.Add(1)
			case errors.Is(err, context.Canceled):
				cancelled.Add(1)
			default:
				t.Errorf("run: unexpected error %v", err)
			}
		}(i)
	}
	wg.Wait()

	if got := succeeded.Load() + panicked.Load() + cancelled.Load() + rejected.Load(); got != total {
		t.Errorf("outcomes sum to %d, want %d", got, total)
	}
	if succeeded.Load() == 0 || panicked.Load() == 0 {
		t.Errorf("degenerate mix: %d succeeded, %d panicked, %d cancelled, %d rejected",
			succeeded.Load(), panicked.Load(), cancelled.Load(), rejected.Load())
	}
	if n := a.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after churn, want 0", n)
	}
	if n := a.Queued(); n != 0 {
		t.Errorf("Queued = %d after churn, want 0", n)
	}
	if uint64(rejected.Load()) > a.Rejected() {
		t.Errorf("observed %d rejections but counter says %d", rejected.Load(), a.Rejected())
	}
	// Full capacity must be re-admittable without blocking.
	releases := make([]func(), 0, maxInFlight)
	for i := 0; i < maxInFlight; i++ {
		release, err := a.Acquire(context.Background())
		if err != nil {
			t.Fatalf("slot %d not re-admittable after churn: %v", i, err)
		}
		releases = append(releases, release)
	}
	for _, r := range releases {
		r()
	}
	if n := a.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after refill/release, want 0", n)
	}
}

// TestAdmissionQueueFullTypedError asserts the rejection error carries the
// observed occupancy and matches the sentinel.
func TestAdmissionQueueFullTypedError(t *testing.T) {
	a := NewAdmission(1, 0)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	_, err = a.Acquire(context.Background())
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("Acquire = %v, want *OverloadedError", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Error("OverloadedError does not match ErrOverloaded")
	}
	if oe.MaxInFlight != 1 || oe.MaxQueue != 0 || oe.InFlight != 1 {
		t.Errorf("occupancy in error = %+v", oe)
	}
}

// TestAdmissionReleaseIdempotent: calling a release more than once returns
// the slot exactly once. Layered cleanup (a deferred release plus an explicit
// one on a leadership handoff) must not free a slot another unit now holds.
func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := NewAdmission(2, 0)

	rel1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Double-release of the first slot frees exactly one.
	rel1()
	rel1()
	rel1()
	if got := a.InFlight(); got != 1 {
		t.Fatalf("InFlight after triple release = %d, want 1", got)
	}

	// Concurrent duplicate calls are also single-release.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel2()
		}()
	}
	wg.Wait()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after concurrent releases = %d, want 0", got)
	}
	if adm := a.Admitted(); adm != 2 {
		t.Fatalf("Admitted = %d, want 2", adm)
	}
}
