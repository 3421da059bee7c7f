package sched

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func withPool(t *testing.T, n int, fn func(p *Pool)) {
	t.Helper()
	p := NewPool(n)
	defer p.Close()
	fn(p)
}

func TestPoolRunReachesAllWorkers(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		if p.Workers() != 4 {
			t.Fatalf("Workers = %d", p.Workers())
		}
		var seen [4]atomic.Int64
		p.Run(func(tid int) { seen[tid].Add(1) })
		for tid := range seen {
			if seen[tid].Load() != 1 {
				t.Errorf("worker %d ran %d times, want 1", tid, seen[tid].Load())
			}
		}
	})
}

func TestPoolRunIsBarrier(t *testing.T) {
	withPool(t, 3, func(p *Pool) {
		var done atomic.Int64
		p.Run(func(tid int) { done.Add(1) })
		if done.Load() != 3 {
			t.Fatalf("Run returned before all workers finished: %d", done.Load())
		}
	})
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatal("pool has no workers")
	}
}

func TestChunkMath(t *testing.T) {
	if DefaultChunks(4) != 128 {
		t.Errorf("DefaultChunks(4) = %d, want 128 (32 per thread)", DefaultChunks(4))
	}
	if ChunkSize(100, 10) != 10 || ChunkSize(101, 10) != 11 || ChunkSize(5, 100) != 1 {
		t.Error("ChunkSize wrong")
	}
	if NumChunks(100, 10) != 10 || NumChunks(101, 10) != 11 || NumChunks(0, 10) != 0 {
		t.Error("NumChunks wrong")
	}
}

func TestDynamicForCoversExactly(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		const total = 1003
		hits := make([]atomic.Int32, total)
		var chunkIDs sync.Map
		p.DynamicFor(total, 17, func(r Range, chunkID, tid int) {
			if _, dup := chunkIDs.LoadOrStore(chunkID, true); dup {
				t.Errorf("chunk %d delivered twice", chunkID)
			}
			for i := r.Lo; i < r.Hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("iteration %d executed %d times", i, hits[i].Load())
			}
		}
	})
}

func TestDynamicForChunkShapes(t *testing.T) {
	withPool(t, 2, func(p *Pool) {
		var mu sync.Mutex
		got := map[int]Range{}
		p.DynamicFor(25, 10, func(r Range, chunkID, tid int) {
			mu.Lock()
			got[chunkID] = r
			mu.Unlock()
		})
		want := map[int]Range{0: {0, 10}, 1: {10, 20}, 2: {20, 25}}
		for id, r := range want {
			if got[id] != r {
				t.Errorf("chunk %d = %v, want %v", id, got[id], r)
			}
		}
		if len(got) != 3 {
			t.Errorf("%d chunks, want 3", len(got))
		}
	})
}

func TestDynamicForEmpty(t *testing.T) {
	withPool(t, 2, func(p *Pool) {
		ran := false
		p.DynamicFor(0, 10, func(Range, int, int) { ran = true })
		if ran {
			t.Error("body ran for empty iteration space")
		}
	})
}

func TestStaticForCoversAndBalances(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		const total = 103
		hits := make([]atomic.Int32, total)
		perWorker := make([]atomic.Int64, 4)
		p.StaticFor(total, func(r Range, tid int) {
			perWorker[tid].Add(int64(r.Len()))
			for i := r.Lo; i < r.Hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("iteration %d executed %d times", i, hits[i].Load())
			}
		}
		// ceil(103/4)=26; workers get 26,26,26,25.
		for tid := 0; tid < 4; tid++ {
			if n := perWorker[tid].Load(); n < 25 || n > 26 {
				t.Errorf("worker %d got %d iterations", tid, n)
			}
		}
	})
}

func TestParallelForSum(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		var sum atomic.Int64
		p.ParallelFor(1000, 13, func(i, tid int) { sum.Add(int64(i)) })
		if want := int64(1000 * 999 / 2); sum.Load() != want {
			t.Errorf("sum = %d, want %d", sum.Load(), want)
		}
	})
}

// TestSchedulerAwareHookSequence pins the chunk contract the scheduler-aware
// hooks rest on: on a single worker, chunks arrive in ascending id order,
// each a contiguous range of chunkSize iterations (the last one short), so a
// body's prologue, loop and epilogue are the paper's StartChunk,
// LoopIteration and FinishChunk.
func TestSchedulerAwareHookSequence(t *testing.T) {
	withPool(t, 1, func(p *Pool) {
		var log []Range
		p.DynamicFor(10, 4, func(r Range, chunkID, tid int) {
			if chunkID != len(log) {
				t.Errorf("chunk %d arrived as number %d", chunkID, len(log))
			}
			if want := chunkID * 4; r.Lo != want {
				t.Errorf("chunk %d starts at %d, want %d", chunkID, r.Lo, want)
			}
			log = append(log, r)
		})
		want := []Range{{0, 4}, {4, 8}, {8, 10}}
		if !slices.Equal(log, want) {
			t.Errorf("chunk log = %+v, want %+v", log, want)
		}
	})
}

// TestSchedulerAwareReduction verifies the paper's core claim mechanically:
// a sum reduction built on the scheduler-aware pattern — chunk-local
// accumulation, one partial per chunk id — needs no atomics and still
// produces the exact serial result.
func TestSchedulerAwareReduction(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		const total = 100000
		numChunks := NumChunks(total, 37)
		partials := make([]uint64, numChunks)
		p.DynamicFor(total, 37, func(r Range, chunkID, tid int) {
			var acc uint64
			for i := r.Lo; i < r.Hi; i++ {
				acc += uint64(i)
			}
			partials[chunkID] = acc
		})
		var sum uint64
		for _, v := range partials {
			sum += v
		}
		if want := uint64(total) * (total - 1) / 2; sum != want {
			t.Errorf("sum = %d, want %d", sum, want)
		}
	})
}

func TestMergeBufferSaveMerge(t *testing.T) {
	b := NewMergeBuffer(4)
	if b.Slots() != 4 {
		t.Fatalf("Slots = %d", b.Slots())
	}
	b.Save(0, 7, 100)
	b.Save(2, 7, 11)
	b.Save(3, 9, 5)
	got := map[uint32]uint64{}
	n := b.Merge(func(dest uint32, v uint64) { got[dest] += v })
	if n != 3 {
		t.Errorf("Merge folded %d slots, want 3", n)
	}
	if got[7] != 111 || got[9] != 5 {
		t.Errorf("merged values = %v", got)
	}
	// Buffer must be clear after Merge.
	if b.Merge(func(uint32, uint64) { t.Error("slot survived Merge") }) != 0 {
		t.Error("second Merge folded slots")
	}
}

func TestMergeBufferReset(t *testing.T) {
	b := NewMergeBuffer(2)
	b.Save(1, 3, 9)
	b.Reset()
	if b.Merge(func(uint32, uint64) {}) != 0 {
		t.Error("Reset did not clear slots")
	}
}

func TestMergeBufferGrow(t *testing.T) {
	b := NewMergeBuffer(2)
	b.Save(1, 5, 50)
	b.Grow(8)
	if b.Slots() != 8 {
		t.Fatalf("Slots after Grow = %d", b.Slots())
	}
	b.Save(7, 6, 60)
	got := map[uint32]uint64{}
	b.Merge(func(dest uint32, v uint64) { got[dest] = v })
	if got[5] != 50 || got[6] != 60 {
		t.Errorf("Grow lost data: %v", got)
	}
	b.Grow(4) // shrink request is a no-op
	if b.Slots() != 8 {
		t.Error("Grow shrank the buffer")
	}
}

// Property: DynamicFor covers every iteration exactly once for arbitrary
// sizes and granularities.
func TestDynamicForCoverageProperty(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := rng.Intn(2000)
		chunk := rng.Intn(100) + 1
		hits := make([]atomic.Int32, total)
		p.DynamicFor(total, chunk, func(r Range, _, _ int) {
			for i := r.Lo; i < r.Hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a scheduler-aware min-reduction over random data matches the
// serial result for any chunking — the Connected Components aggregation.
func TestSchedulerAwareMinProperty(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := rng.Intn(5000) + 1
		chunk := rng.Intn(200) + 1
		data := make([]uint64, total)
		for i := range data {
			data[i] = rng.Uint64()
		}
		want := ^uint64(0)
		for _, v := range data {
			if v < want {
				want = v
			}
		}
		numChunks := NumChunks(total, chunk)
		buf := NewMergeBuffer(numChunks)
		p.DynamicFor(total, chunk, func(r Range, chunkID, tid int) {
			acc := ^uint64(0)
			for _, v := range data[r.Lo:r.Hi] {
				acc = min(acc, v)
			}
			buf.Save(chunkID, 0, acc)
		})
		got := ^uint64(0)
		buf.Merge(func(_ uint32, v uint64) {
			if v < got {
				got = v
			}
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
