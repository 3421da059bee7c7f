package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentRunJobs submits many fork-join jobs from separate
// goroutines: every job must see each of its virtual tids exactly once, and
// every Run must return only after its own slots all completed.
func TestConcurrentRunJobs(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		const jobs = 16
		var wg sync.WaitGroup
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var seen [4]atomic.Int64
				p.Run(func(tid int) { seen[tid].Add(1) })
				for tid := range seen {
					if seen[tid].Load() != 1 {
						t.Errorf("tid %d ran %d times, want 1", tid, seen[tid].Load())
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestConcurrentDynamicForJobs multiplexes several dynamic loops over one
// worker set; each must cover its iteration space exactly once with its own
// chunk numbering.
func TestConcurrentDynamicForJobs(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		const jobs = 8
		const total = 5003
		var wg sync.WaitGroup
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func(chunk int) {
				defer wg.Done()
				hits := make([]atomic.Int32, total)
				maxChunk := NumChunks(total, chunk) - 1
				p.DynamicFor(total, chunk, func(r Range, chunkID, tid int) {
					if chunkID < 0 || chunkID > maxChunk {
						t.Errorf("chunk id %d out of range [0,%d]", chunkID, maxChunk)
					}
					if r.Lo != chunkID*chunk {
						t.Errorf("chunk %d starts at %d, want %d", chunkID, r.Lo, chunkID*chunk)
					}
					for i := r.Lo; i < r.Hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if hits[i].Load() != 1 {
						t.Errorf("iteration %d executed %d times", i, hits[i].Load())
						return
					}
				}
			}(11 + j*7)
		}
		wg.Wait()
	})
}

// TestConcurrentSchedulerAwareReductions runs several scheduler-aware sum
// reductions at once; per-job merge buffers must yield the exact serial
// result for every job (the multiplexing must not leak chunk state across
// jobs).
func TestConcurrentSchedulerAwareReductions(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		const jobs = 8
		const total = 50000
		var wg sync.WaitGroup
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func(chunk int) {
				defer wg.Done()
				buf := NewMergeBuffer(NumChunks(total, chunk))
				p.DynamicFor(total, chunk, func(r Range, chunkID, tid int) {
					var acc uint64
					for i := r.Lo; i < r.Hi; i++ {
						acc += uint64(i)
					}
					buf.Save(chunkID, 0, acc)
				})
				var sum uint64
				buf.Merge(func(_ uint32, v uint64) { sum += v })
				if want := uint64(total) * (total - 1) / 2; sum != want {
					t.Errorf("sum = %d, want %d", sum, want)
				}
			}(13 + j*19)
		}
		wg.Wait()
	})
}

// TestDynamicForCtxCancel checks chunk-granularity cancellation: after the
// context is cancelled no further chunks start, the loop returns the
// context error, and in-flight chunks ran to completion (no partial chunk).
func TestDynamicForCtxCancel(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		var completed atomic.Int64
		err := p.DynamicForCtx(ctx, 10000, 10, func(r Range, chunkID, tid int) {
			// Later chunks wait for the cancellation: empty chunks take
			// nanoseconds and cancel() microseconds, so the other workers
			// could otherwise drain all 1000 before it lands.
			if n := started.Add(1); n == 5 {
				cancel()
			} else if n > 5 {
				<-ctx.Done()
			}
			completed.Add(1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if started.Load() != completed.Load() {
			t.Errorf("started %d chunks but completed %d", started.Load(), completed.Load())
		}
		if completed.Load() >= 1000 {
			t.Errorf("cancellation did not stop chunk claiming (%d chunks ran)", completed.Load())
		}
	})
}

// TestDynamicForCtxPreCancelled: a context cancelled before submission runs
// no chunks at all.
func TestDynamicForCtxPreCancelled(t *testing.T) {
	withPool(t, 2, func(p *Pool) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := atomic.Int64{}
		err := p.DynamicForCtx(ctx, 1000, 10, func(Range, int, int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if ran.Load() != 0 {
			t.Errorf("%d chunks ran on a pre-cancelled context", ran.Load())
		}
	})
}

// TestDynamicForCtxNilError: an uncancelled context yields nil and full
// coverage.
func TestDynamicForCtxNilError(t *testing.T) {
	withPool(t, 2, func(p *Pool) {
		var n atomic.Int64
		if err := p.DynamicForCtx(context.Background(), 100, 7, func(r Range, _, _ int) {
			n.Add(int64(r.Len()))
		}); err != nil {
			t.Fatalf("err = %v", err)
		}
		if n.Load() != 100 {
			t.Errorf("covered %d iterations, want 100", n.Load())
		}
	})
}

// TestPoolCloseIdempotent: Close twice must not panic or deadlock.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(3)
	p.Close()
	p.Close()
}

// TestConcurrentMixedLoops mixes Run, StaticFor, ParallelFor, and
// DynamicFor jobs on one pool under contention.
func TestConcurrentMixedLoops(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		var wg sync.WaitGroup
		for rep := 0; rep < 4; rep++ {
			wg.Add(4)
			go func() {
				defer wg.Done()
				var sum atomic.Int64
				p.ParallelFor(1000, 13, func(i, tid int) { sum.Add(int64(i)) })
				if want := int64(1000 * 999 / 2); sum.Load() != want {
					t.Errorf("ParallelFor sum = %d, want %d", sum.Load(), want)
				}
			}()
			go func() {
				defer wg.Done()
				hits := make([]atomic.Int32, 777)
				p.StaticFor(777, func(r Range, tid int) {
					for i := r.Lo; i < r.Hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if hits[i].Load() != 1 {
						t.Errorf("StaticFor iteration %d ran %d times", i, hits[i].Load())
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				hits := make([]atomic.Int32, 1003)
				p.DynamicFor(1003, 17, func(r Range, chunkID, tid int) {
					for i := r.Lo; i < r.Hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if hits[i].Load() != 1 {
						t.Errorf("DynamicFor iteration %d ran %d times", i, hits[i].Load())
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				var seen [4]atomic.Int64
				p.Run(func(tid int) { seen[tid].Add(1) })
				for tid := range seen {
					if seen[tid].Load() != 1 {
						t.Errorf("Run tid %d ran %d times", tid, seen[tid].Load())
					}
				}
			}()
		}
		wg.Wait()
	})
}
