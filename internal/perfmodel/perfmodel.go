// Package perfmodel collects execution counters from the engines. The
// paper's scaling arguments rest on quantities (conflicting shared writes,
// atomic operations, merge overhead) that a 2-core reproduction machine
// cannot surface as wall-clock separation at 112-thread magnitudes, so every
// engine reports them explicitly; the figure harness prints counters next to
// times (see DESIGN.md §2).
package perfmodel

import "time"

// Counters aggregates the events of one engine phase. All counts are exact,
// not sampled.
type Counters struct {
	// EdgesProcessed counts real edges examined (excluding padding lanes).
	EdgesProcessed uint64
	// VectorsProcessed counts Vector-Sparse vectors examined.
	VectorsProcessed uint64
	// TLSWrites counts writes captured in thread-local state (the
	// scheduler-aware fast path).
	TLSWrites uint64
	// SharedWrites counts stores to shared vertex property memory.
	SharedWrites uint64
	// AtomicOps counts atomic read-modify-write operations issued.
	AtomicOps uint64
	// CASRetries counts compare-and-swap failures (direct evidence of write
	// conflicts between threads).
	CASRetries uint64
	// MergeOps counts merge-buffer slots folded after the parallel section.
	MergeOps uint64
	// FrontierSkips counts edges skipped by frontier/converged checks.
	FrontierSkips uint64
	// InvalidLanes counts padding lanes encountered in vectors.
	InvalidLanes uint64
	// LocalAccesses / RemoteAccesses classify property reads by the
	// simulated NUMA node that owns the address versus the node running the
	// worker.
	LocalAccesses  uint64
	RemoteAccesses uint64
	// SkippedWrites counts stores elided because the value was unchanged
	// (the Connected Components minimization optimization of Fig 8).
	SkippedWrites uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.EdgesProcessed += o.EdgesProcessed
	c.VectorsProcessed += o.VectorsProcessed
	c.TLSWrites += o.TLSWrites
	c.SharedWrites += o.SharedWrites
	c.AtomicOps += o.AtomicOps
	c.CASRetries += o.CASRetries
	c.MergeOps += o.MergeOps
	c.FrontierSkips += o.FrontierSkips
	c.InvalidLanes += o.InvalidLanes
	c.LocalAccesses += o.LocalAccesses
	c.RemoteAccesses += o.RemoteAccesses
	c.SkippedWrites += o.SkippedWrites
}

// Breakdown is the per-phase time profile of the paper's Fig 5b.
type Breakdown struct {
	// Work is time spent executing chunk iterations, summed over workers.
	Work time.Duration
	// Merge is time spent folding the merge buffer (scheduler-aware only).
	Merge time.Duration
	// Idle is worker time spent waiting at the phase barrier.
	Idle time.Duration
}

// Total returns the summed profile time.
func (b Breakdown) Total() time.Duration { return b.Work + b.Merge + b.Idle }

// paddedCounters keeps each worker's counters on separate cache lines so
// that recording does not itself create the write conflicts it measures.
type paddedCounters struct {
	c Counters
	_ [128 - unsafeSizeMod]byte
}

// Counters is 12×8 = 96 bytes; pad the struct to 2 cache lines.
const unsafeSizeMod = 96 % 128

// Recorder collects per-worker counters and busy time. A nil *Recorder is
// valid and records nothing, so engines can run unmetered at full speed.
type Recorder struct {
	lanes []paddedCounters
	busy  []time.Duration
	// Wall is the measured phase's wall time, summed over its rounds, and
	// MergeTime the share of it spent in the merge fold after the parallel
	// section. The engine that owns the Recorder sets both from the clock
	// readings it reports the phase with (core: Result.EdgeTime and the
	// trace's merge phase).
	Wall, MergeTime time.Duration
}

// NewRecorder creates a recorder for the given worker count.
func NewRecorder(workers int) *Recorder {
	return &Recorder{lanes: make([]paddedCounters, workers), busy: make([]time.Duration, workers)}
}

// Record adds a batch of counters to worker tid's lane. Safe for concurrent
// use by distinct tids; no-op on a nil recorder.
func (r *Recorder) Record(tid int, c Counters) {
	if r == nil {
		return
	}
	r.lanes[tid].c.Add(c)
}

// AddBusy accounts busy (chunk-execution) time to worker tid.
func (r *Recorder) AddBusy(tid int, d time.Duration) {
	if r == nil {
		return
	}
	r.busy[tid] += d
}

// Total sums all workers' counters.
func (r *Recorder) Total() Counters {
	var out Counters
	if r == nil {
		return out
	}
	for i := range r.lanes {
		out.Add(r.lanes[i].c)
	}
	return out
}

// Profile derives the Fig 5b breakdown: Work is summed busy time, Idle is
// the barrier wait (workers × wall − busy − merge, clamped at zero).
func (r *Recorder) Profile() Breakdown {
	if r == nil {
		return Breakdown{}
	}
	var b Breakdown
	b.Merge = r.MergeTime
	for _, d := range r.busy {
		b.Work += d
	}
	span := r.Wall * time.Duration(len(r.busy))
	if idle := span - b.Work - b.Merge; idle > 0 {
		b.Idle = idle
	}
	return b
}

// Reset clears all counters and times for reuse.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.lanes {
		r.lanes[i].c = Counters{}
	}
	for i := range r.busy {
		r.busy[i] = 0
	}
	r.Wall, r.MergeTime = 0, 0
}
