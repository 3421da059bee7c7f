// Package sched provides the parallel-loop machinery of the paper's §3: a
// persistent worker pool, a traditional parallel_for whose body sees only an
// iteration index, a dynamic chunk scheduler (contiguous chunks of the
// iteration space handed to threads as they become available — Grazelle's
// Edge-phase scheduler, 32·n chunks by default), and the per-chunk merge
// buffer of the scheduler-aware interface, the paper's first contribution.
// A DynamicFor body sees its whole chunk — range, chunk id, thread id — so
// the paper's StartChunk / LoopIteration / FinishChunk hooks are the body's
// prologue, loop and epilogue (the engine inlines them in its pull kernels),
// and the chunk id names the merge slot its trailing partial goes to.
//
// The pool is a job-queue scheduler: any number of goroutines may submit
// fork-join jobs concurrently and the pool multiplexes their slots over one
// worker set. All per-job state (ticket counters, completion counts) lives
// in the job, so concurrent DynamicFor calls never share scheduler state and
// each preserves its chunk contract — chunk ids, chunk ranges, and
// therefore merge-buffer layout and results are identical to a solo run.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Pool is a fixed set of worker goroutines, the stand-in for Grazelle's
// pthreads pinned one per logical core. Graph phases are microseconds long,
// so the fork-join barrier is latency-critical: workers spin briefly
// (yielding to the Go scheduler) before falling back to a channel sleep, so
// a job dispatch costs well under a microsecond on a warm pool while an
// idle pool still parks its goroutines. The zero value is not usable; call
// NewPool.
//
// Pool is safe for concurrent use: Run and the loop helpers may be called
// from any number of goroutines at once, and Close is idempotent. Each
// submitted job carries its own ticket state; a submitting goroutine helps
// execute its own job's slots, so progress never depends on a worker being
// free.
type Pool struct {
	workers int
	// jobs is a copy-on-write snapshot of the active job list. Workers read
	// it lock-free; mu serializes the writers (submit and finish).
	jobs atomic.Pointer[[]*job]
	mu   sync.Mutex
	// maxJobs bounds the active job count when positive: submit parks the
	// submitting goroutine on jobsFree until a slot opens. This is how an
	// admission limit threads down to job submission — a serving layer caps
	// concurrent queries and gives the shared pool the same bound, so even a
	// misbehaving caller cannot pile unbounded jobs onto the worker set.
	maxJobs  int
	jobsFree *sync.Cond
	// seq counts job submissions; idle workers watch it for new work.
	seq atomic.Uint64
	// panics counts recovered job-body panics (slot- and chunk-level), for
	// health reporting.
	panics atomic.Uint64
	// sleeping[wid] marks a worker parked on its wake channel.
	sleeping  []atomic.Bool
	wake      []chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once
	// metrics, when set, receives per-job timing observations. Held behind
	// an atomic pointer so the hot path pays one load + nil check when
	// metrics are off.
	metrics atomic.Pointer[PoolMetrics]
}

// PoolMetrics carries the optional scheduler histograms fed by Run: JobWait
// observes seconds a submitter spent blocked on the active-job cap before
// its job was published (0 when it sailed through — the count then equals
// jobs submitted), JobExec observes seconds from publication to barrier
// completion. Nil histograms are skipped individually.
type PoolMetrics struct {
	JobWait *obs.Histogram
	JobExec *obs.Histogram
}

// job is one fork-join task: slots virtual thread ids, each executed exactly
// once by whichever executor (pool worker or submitter) claims it. The slot
// index is the "tid" the body sees, so tid-indexed state is per-job even
// when several jobs share the physical workers.
type job struct {
	fn    func(tid int)
	slots int64
	// next is the slot ticket; done counts completed slots.
	next atomic.Int64
	done atomic.Int64
	// panicked holds the first panic any slot raised; the job still runs its
	// barrier to completion and the pool stays healthy, but Run reports it.
	panicked atomic.Pointer[PanicError]
	// fin is closed by whichever executor completes the last slot.
	fin chan struct{}
}

// spinYields is how many scheduler yields a worker performs before parking.
const spinYields = 256

// NewPool starts a pool with the given number of workers; n < 1 selects
// GOMAXPROCS.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers:  n,
		sleeping: make([]atomic.Bool, n),
		wake:     make([]chan struct{}, n),
	}
	for wid := 1; wid < n; wid++ {
		p.wake[wid] = make(chan struct{}, 1)
		go p.worker(wid)
	}
	return p
}

// loadJobs returns the current job-list snapshot (nil when idle).
func (p *Pool) loadJobs() []*job {
	if jp := p.jobs.Load(); jp != nil {
		return *jp
	}
	return nil
}

// tryWork scans the active jobs and executes every slot it can claim,
// reporting whether it executed anything.
func (p *Pool) tryWork() bool {
	worked := false
	for _, j := range p.loadJobs() {
		for {
			s := j.next.Add(1) - 1
			if s >= j.slots {
				break
			}
			worked = true
			p.runSlot(j, s)
		}
	}
	return worked
}

// runSlot executes one claimed slot under a recover barrier: a panicking job
// body is converted into the job's PanicError instead of killing the
// executor (a pool worker goroutine, or a submitter helping out). The
// completion accounting lives in the deferred block so a panicked slot still
// counts toward the barrier — the job always finishes and waiters never
// hang.
func (p *Pool) runSlot(j *job, s int64) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, NewPanicError(r))
			p.panics.Add(1)
		}
		if j.done.Add(1) == j.slots {
			p.finish(j)
		}
	}()
	j.fn(int(s))
}

func (p *Pool) worker(wid int) {
	spins := 0
	for {
		if p.closed.Load() {
			return
		}
		seq := p.seq.Load()
		if p.tryWork() {
			spins = 0
			continue
		}
		if p.seq.Load() != seq {
			continue
		}
		spins++
		if spins < spinYields {
			runtime.Gosched()
			continue
		}
		p.sleeping[wid].Store(true)
		if p.seq.Load() != seq || p.closed.Load() {
			p.sleeping[wid].Store(false)
			spins = 0
			continue
		}
		<-p.wake[wid]
		p.sleeping[wid].Store(false)
		spins = 0
	}
}

// SetMaxActiveJobs bounds the number of concurrently active jobs; further
// submissions block until a running job finishes. n < 1 removes the bound.
// Blocked submissions proceed when the pool is closed (the submitter then
// executes its own slots inline). Call before the pool is shared.
func (p *Pool) SetMaxActiveJobs(n int) {
	p.mu.Lock()
	p.maxJobs = n
	if p.jobsFree == nil {
		p.jobsFree = sync.NewCond(&p.mu)
	}
	p.jobsFree.Broadcast()
	p.mu.Unlock()
}

// ActiveJobs returns the number of jobs currently published to the workers.
func (p *Pool) ActiveJobs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.loadJobs())
}

// submit publishes a job and wakes parked workers, first waiting for a
// free slot under the active-job bound.
func (p *Pool) submit(j *job) {
	p.mu.Lock()
	for p.maxJobs > 0 && len(p.loadJobs()) >= p.maxJobs && !p.closed.Load() {
		p.jobsFree.Wait()
	}
	old := p.loadJobs()
	nw := make([]*job, len(old)+1)
	copy(nw, old)
	nw[len(old)] = j
	p.jobs.Store(&nw)
	p.mu.Unlock()
	p.seq.Add(1)
	for wid := 1; wid < p.workers; wid++ {
		if p.sleeping[wid].Load() {
			select {
			case p.wake[wid] <- struct{}{}:
			default:
			}
		}
	}
}

// finish removes a completed job from the active list and releases its
// waiter. Called exactly once per job, by whichever executor completed the
// last slot.
func (p *Pool) finish(j *job) {
	p.mu.Lock()
	old := p.loadJobs()
	nw := make([]*job, 0, len(old)-1)
	for _, o := range old {
		if o != j {
			nw = append(nw, o)
		}
	}
	p.jobs.Store(&nw)
	if p.jobsFree != nil {
		p.jobsFree.Signal()
	}
	p.mu.Unlock()
	close(j.fin)
}

// SetMetrics attaches (or detaches, with nil) the pool's timing histograms.
// Safe to call concurrently with Run; in-flight jobs may observe either
// setting.
func (p *Pool) SetMetrics(m *PoolMetrics) { p.metrics.Store(m) }

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// Panics returns the cumulative count of job-body panics the pool has
// recovered. A nonzero value means some runs failed, never that the pool is
// unhealthy — recovered panics leave the workers running.
func (p *Pool) Panics() uint64 { return p.panics.Load() }

// Close terminates the worker goroutines. Close is idempotent; the pool
// must not be used after the first Close. Jobs already executing complete.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		p.mu.Lock()
		if p.jobsFree != nil {
			p.jobsFree.Broadcast()
		}
		p.mu.Unlock()
		for wid := 1; wid < p.workers; wid++ {
			select {
			case p.wake[wid] <- struct{}{}:
			default:
			}
		}
	})
}

// Run executes fn once for every virtual thread id in [0, Workers()) and
// waits for all of them — a fork-join barrier. The submitting goroutine
// helps execute its own job's slots, so a single-worker pool runs inline
// and a busy pool never deadlocks a submitter. Run may be called from many
// goroutines concurrently; each call is an independent job and its tids are
// private to it.
//
// A panic in fn is contained to this job: every slot still reaches the
// barrier, sibling jobs and the worker goroutines are untouched, and Run
// returns the first panic as a *PanicError. A nil return means every slot
// ran to completion.
func (p *Pool) Run(fn func(tid int)) error {
	m := p.metrics.Load()
	if p.workers == 1 {
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		var pe *PanicError
		func() {
			defer func() {
				if r := recover(); r != nil {
					pe = NewPanicError(r)
					p.panics.Add(1)
				}
			}()
			fn(0)
		}()
		if m != nil {
			if m.JobWait != nil {
				m.JobWait.Observe(0)
			}
			if m.JobExec != nil {
				m.JobExec.Observe(time.Since(t0).Seconds())
			}
		}
		if pe != nil {
			return pe
		}
		return nil
	}
	j := &job{fn: fn, slots: int64(p.workers), fin: make(chan struct{})}
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	p.submit(j)
	var t1 time.Time
	if m != nil {
		t1 = time.Now()
		if m.JobWait != nil {
			m.JobWait.Observe(t1.Sub(t0).Seconds())
		}
	}
	for {
		s := j.next.Add(1) - 1
		if s >= j.slots {
			break
		}
		p.runSlot(j, s)
	}
	// Wait for slots claimed by workers: spin briefly (phases are
	// microseconds), then block.
	finished := false
	for spins := 0; spins < spinYields; spins++ {
		select {
		case <-j.fin:
			finished = true
		default:
		}
		if finished {
			break
		}
		runtime.Gosched()
	}
	if !finished {
		<-j.fin
	}
	if m != nil && m.JobExec != nil {
		m.JobExec.Observe(time.Since(t1).Seconds())
	}
	return j.err()
}

// err converts a finished job's panic record into Run's return value. The
// explicit nil check avoids wrapping a typed nil pointer in the error
// interface.
func (j *job) err() error {
	if pe := j.panicked.Load(); pe != nil {
		return pe
	}
	return nil
}

// Range is a half-open interval of loop iterations.
type Range struct{ Lo, Hi int }

// Len returns the iteration count of the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// DefaultChunks is the paper's scheduling granularity: 32 chunks per thread
// achieved near-ideal load balance (§5).
func DefaultChunks(workers int) int { return 32 * workers }

// ChunkSize converts a desired chunk count into a chunk size covering total
// iterations (at least 1).
func ChunkSize(total, chunks int) int {
	if chunks < 1 {
		chunks = 1
	}
	size := (total + chunks - 1) / chunks
	if size < 1 {
		size = 1
	}
	return size
}

// NumChunks returns how many chunks of the given size cover total
// iterations.
func NumChunks(total, chunkSize int) int {
	if total == 0 {
		return 0
	}
	return (total + chunkSize - 1) / chunkSize
}

// DynamicFor statically chunks [0, total) into contiguous chunks of
// chunkSize iterations and dynamically assigns chunks to workers as they
// become available (an atomic ticket counter — work assignment is dynamic,
// the iteration→chunk mapping is static, exactly the constraint §3 places on
// schedulers so the merge buffer can be preallocated). body runs once per
// chunk. The ticket is per-call, so concurrent DynamicFor jobs on one pool
// are independent.
//
// A panic in body is contained by the pool (workers and sibling jobs
// survive) and rethrown on the calling goroutine as a *PanicError; callers
// that want it as a value use DynamicForCtx.
func (p *Pool) DynamicFor(total, chunkSize int, body func(r Range, chunkID, tid int)) {
	Rethrow(p.DynamicForCtx(context.Background(), total, chunkSize, body))
}

// DynamicForCtx is DynamicFor with cancellation and panic containment at
// chunk granularity: when ctx is cancelled, no further chunks are claimed,
// in-flight chunks run to completion, and the error (ctx.Err()) is
// returned. When a chunk body panics, the panic is captured as a
// *PanicError, no executor claims further chunks (fail fast — the loop's
// output is already lost), and the error is returned. A nil error means
// every chunk executed.
func (p *Pool) DynamicForCtx(ctx context.Context, total, chunkSize int, body func(r Range, chunkID, tid int)) error {
	numChunks := NumChunks(total, chunkSize)
	if numChunks == 0 {
		return ctx.Err()
	}
	done := ctx.Done()
	var next atomic.Int64
	var panicked atomic.Pointer[PanicError]
	err := p.Run(func(tid int) {
		for {
			if panicked.Load() != nil {
				return
			}
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			id := int(next.Add(1)) - 1
			if id >= numChunks {
				return
			}
			lo := id * chunkSize
			hi := lo + chunkSize
			if hi > total {
				hi = total
			}
			p.runChunk(&panicked, body, Range{Lo: lo, Hi: hi}, id, tid)
		}
	})
	if pe := panicked.Load(); pe != nil {
		return pe
	}
	if err != nil {
		return err
	}
	return ctx.Err()
}

// runChunk executes one chunk under a recover barrier, recording the first
// panic in the loop's shared slot. Containing the panic here (rather than
// letting it unwind to the slot barrier in runSlot) keeps the executor's
// claim loop alive for sibling jobs' work and lets the loop fail fast.
func (p *Pool) runChunk(panicked *atomic.Pointer[PanicError], body func(r Range, chunkID, tid int), rg Range, chunkID, tid int) {
	defer func() {
		if r := recover(); r != nil {
			panicked.CompareAndSwap(nil, NewPanicError(r))
			p.panics.Add(1)
		}
	}()
	if err := fault.Inject("sched/chunk"); err != nil {
		panic(err)
	}
	body(rg, chunkID, tid)
}

// Rethrow re-raises a *PanicError returned by an error-reporting loop on
// the current goroutine — how the fire-and-forget loop variants (DynamicFor,
// StaticFor, ...) preserve their historical contract that a body panic is
// visible at the call site rather than silently swallowed. Non-panic errors
// (and nil) pass through untouched.
func Rethrow(err error) {
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
}

// StaticFor divides [0, total) into one contiguous chunk per worker —
// Grazelle's Vertex-phase scheduler, where work is regular enough that load
// balancing is not a problem. A panic in body fails only this loop (the
// pool survives) and is rethrown on the calling goroutine as a *PanicError.
func (p *Pool) StaticFor(total int, body func(r Range, tid int)) {
	if total == 0 {
		return
	}
	per := (total + p.workers - 1) / p.workers
	Rethrow(p.Run(func(tid int) {
		lo := tid * per
		if lo >= total {
			return
		}
		hi := lo + per
		if hi > total {
			hi = total
		}
		body(Range{Lo: lo, Hi: hi}, tid)
	}))
}

// ParallelFor is the traditional interface (Cilk Plus / OpenMP style): the
// body sees one iteration index and must assume every iteration may run on
// a different thread. Iterations are delivered through the same dynamic
// chunk scheduler as DynamicFor, but the body cannot exploit that.
func (p *Pool) ParallelFor(total, chunkSize int, body func(i, tid int)) {
	p.DynamicFor(total, chunkSize, func(r Range, _, tid int) {
		for i := r.Lo; i < r.Hi; i++ {
			body(i, tid)
		}
	})
}
