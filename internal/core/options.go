package core

import (
	"fmt"

	"repro/internal/numa"
	"repro/internal/sched"
)

// PullVariant selects the Edge-Pull inner-loop parallelization strategy of
// the vectorized kernel — the axis of the paper's Figs 5–8. The scalar
// kernel (Options.Scalar) is Fig 10's baseline and runs the scheduler-aware
// interface only.
type PullVariant int

const (
	// PullSchedulerAware is the paper's contribution: chunk-local
	// accumulation, direct stores on outer-loop transitions, per-chunk merge
	// buffer, no synchronization (§3).
	PullSchedulerAware PullVariant = iota
	// PullTraditional parallelizes the inner loop with the traditional
	// interface: one synchronized (CAS) shared update per edge.
	PullTraditional
	// PullTraditionalNonatomic is PullTraditional with the atomics removed —
	// the paper's "Traditional, Nonatomic" reference point, which quantifies
	// conflict cost but produces potentially incorrect output under
	// multiple workers.
	PullTraditionalNonatomic
)

// String returns the variant name used in reports.
func (v PullVariant) String() string {
	switch v {
	case PullSchedulerAware:
		return "Scheduler-Aware"
	case PullTraditional:
		return "Traditional"
	case PullTraditionalNonatomic:
		return "Traditional-Nonatomic"
	default:
		return fmt.Sprintf("PullVariant(%d)", int(v))
	}
}

// EngineMode selects which Edge-phase engine runs each iteration.
type EngineMode int

const (
	// EngineHybrid picks pull or push per iteration from frontier density
	// (§2: a hybrid selects pull whenever a sufficiently large part of the
	// graph is in the frontier), and runs the list-driven round of sparse.go
	// when the frontier's vertices plus out-edges fit E/20.
	EngineHybrid EngineMode = iota
	// EnginePullOnly always runs Edge-Pull.
	EnginePullOnly
	// EnginePushOnly always runs Edge-Push (list-driven when the frontier
	// fits the same budget).
	EnginePushOnly
)

// engineModeNames indexes the canonical mode names; String's bounds check
// against this table is what keeps an out-of-range value formatting as
// "EngineMode(n)" instead of borrowing a neighbor's name.
var engineModeNames = [...]string{
	EngineHybrid:   "Hybrid",
	EnginePullOnly: "Pull",
	EnginePushOnly: "Push",
}

// String returns the mode name. The explicit range check makes unknown
// values — negative or past the last mode — render as EngineMode(n).
func (m EngineMode) String() string {
	if m >= 0 && int(m) < len(engineModeNames) {
		return engineModeNames[m]
	}
	return fmt.Sprintf("EngineMode(%d)", int(m))
}

// Options configures a Runner. The zero value selects the paper's defaults:
// scheduler-aware vectorized pull, hybrid engine choice, GOMAXPROCS workers
// on a single NUMA node, and 32·n dynamic chunks.
type Options struct {
	// Pool supplies the worker pool; when nil the Runner creates one with
	// Workers workers (Workers < 1 selects GOMAXPROCS).
	Pool    *sched.Pool
	Workers int
	// Topology is the simulated NUMA layout; the zero value means one node
	// holding every worker. Topology.TotalWorkers must equal the pool's
	// worker count.
	Topology numa.Topology
	// ChunkVectors is the scheduling granularity in edge vectors per chunk
	// (the artifact's -s flag). Zero selects the default of 32 chunks per
	// thread (§5).
	ChunkVectors int
	// Variant picks the vectorized Edge-Pull's parallelization strategy.
	Variant PullVariant
	// Scalar disables the software-vectorized kernels, running the
	// edge-at-a-time Compressed-Sparse implementations instead (the
	// baselines of Fig 10, which also pin AblateFrontierWork: the hybrid's
	// list-driven round has one kernel and runs it either way). Its pull is
	// scheduler-aware only: NewRunner panics on Scalar with another Variant.
	Scalar bool
	// Mode forces an engine or leaves the hybrid heuristic in charge.
	Mode EngineMode
	// PullDegreeShare is the hybrid heuristic's degree-sum term (Besta et
	// al., "To Push or To Pull"): below the density at which the hybrid
	// selects Edge-Pull outright (pullDensity), pull is still
	// selected when the frontier's out-degree sum is at least this share of
	// all edges — a few active hubs can put most of the edge set in play,
	// where pull's sequential gather beats push's scattered synchronized
	// writes. The term applies only to programs whose pull
	// scan can stop early (TracksConverged or FusedMinSrc); the share is
	// computed lazily, only when the density test alone would choose push.
	// Zero selects the default (0.15); negative disables the term
	// (density-only, the prior behavior). The default is what the sweep in
	// EXPERIMENTS.md ("Direction-rule sweep", benchfig dirsweep) supports:
	// over 40 roots per analog the term moves the second iteration of
	// 5–15% of T/U roots from dense-scan push to pull, which BFS (it
	// saturates) runs 2.5–5× faster; 0.05 and 0.10 differ from 0.15 by less
	// than that either way. SSSP, which gathers every in-edge regardless,
	// ran the same iterations 10–20% slower as pulls and is left out.
	PullDegreeShare float64
	// Record enables the perfmodel counters and the Edge phase's Fig 5b
	// profile: its wall and merge time are the round records' readings
	// (Result.EdgeTime and the trace's merge phase), and runChunk adds two
	// clock reads per Edge chunk for its busy time. It picks no Edge-Pull
	// body: a scheduler-aware Vector-Sparse chunk runs the body a plain run
	// runs, and then countChunk walks the chunk's words and Index again,
	// with the frontier and converged words, props and the accum words the
	// body left, to charge the vector walk's counters. That pass sits inside
	// the chunk's busy time and costs about one more read of the chunk's
	// words, so timed runs (the benchmarks, Figs 5a and 7) leave Record off
	// and take their counters from a separate Record run.
	Record bool
	// Trace enables the per-run phase tracer: each run's Result carries a
	// RunTrace of wall time, chunk count, and frontier density per engine
	// phase. The tracer folds in each round's record, whose clock readings
	// (one per phase boundary) and chunk counts every run takes anyway, so
	// tracing adds no clock read and no per-chunk work, and serving layers
	// leave it on.
	Trace bool
	// AblateFrontierWork restores the paper's configuration for the
	// design-choice benchmarks and the harness's "paper configuration"
	// rows: every frontier-driven iteration scans whole arrays, one hop per
	// barrier. It disables the mechanisms that make an iteration's cost
	// proportional to its frontier — the list-driven round (sparse.go),
	// which the hybrid otherwise runs whenever |F| + outEdges(F) ≤ E/20, the
	// pull kernels' early exits (pullSABody; bfs's chunk walk), the ungated
	// pull of a full frontier and the Vertex phase's idle-group skip — and
	// two that make it proportional to what can still change: the in-place
	// pull that lets a monotone-min program's label cross a chunk per round
	// (inPlaceAfter), and cc's pass over a destination whose label is already
	// 0 (vec.MinPropChunk's skipZero), so benchfig's Fig 10b times the
	// paper's kernel. Not part of the public facade.
	AblateFrontierWork bool
	// AblateFullVector disables the fused full-vector fast path in the
	// pull kernels, and sends every scheduler-aware pull to pullSABody's
	// vector-by-vector walk — an ablation knob for the design-choice
	// benchmarks and the walk the chunk walks are tested against (their
	// lanes round by round; under Record both are charged by the same
	// countChunk pass, so the counters are held by the pinned tables); not
	// part of the public facade.
	AblateFullVector bool
	// AblateSIMD runs pullSpanBody's chunk walks on their pure-Go twins
	// even where the CPU has AVX2: vec.RankSumChunkGo for the rank-sum
	// programs, vec.MinPropChunkGo for cc's, synchronous and in place, and
	// vec.MinSrcChunkGo for bfs's. Each
	// twin is bit-identical to its assembly, so this changes time only:
	// benchfig fig10's real-SIMD column, the parity tests and the benchmarks'
	// twin rows set it. Not part of the public facade.
	AblateSIMD bool
	// OnRelease, when non-nil, is invoked each time a run's ExecContext is
	// returned to the Runner's idle list — i.e. once per completed (or
	// cancelled) Run/RunCtx call, after the result has been detached. Layers
	// above the engine (the graph store's refcounted handles) use it to
	// observe run completion without wrapping every entry point.
	OnRelease func()
}

// withDefaults normalizes an Options value.
func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		if o.Pool != nil {
			o.Workers = o.Pool.Workers()
		} else {
			o.Workers = 0 // NewPool resolves GOMAXPROCS
		}
	}
	if o.PullDegreeShare == 0 {
		o.PullDegreeShare = 0.15
	}
	return o
}

// inPlaceSpans is the number of chunks an in-place pull round is cut into
// (pullSABody). A label crosses one chunk per round, so a fixpoint is about
// spans + 1 rounds away where it was a diameter's worth; fewer spans mean
// fewer barriers and less to hand to idle workers. The count is a constant,
// not a function of the worker count, so that a run's Iterations is the same
// on every machine and replica (EXPERIMENTS.md, "In-place pull", has the
// sweep).
const inPlaceSpans = 8

// inPlaceAfter is the number of pull iterations a run completes before its
// pull rounds go in place. Going in place costs a low-diameter run more than
// it saves — the skewed analogs finish their dense phase in two or three
// pulls and in-place rounds saved them at most one, at +10–40% per round
// when the read was a Go window test, and with the windowed chunk walk the
// inPlaceSpans grid still starves a skewed round: from the first pull, T×8
// and U×4 cc ran 8–30% slower while the mesh saved a fifth (EXPERIMENTS.md,
// "In-place pull") — so a run first has to show it is bound by hops: it is
// still pulling after this many. The mesh pays the three synchronous rounds
// once, out of 305.
const inPlaceAfter = 3

// inPlaceChunkSizeFor resolves the chunk size, in vectors, of an in-place
// pull round: the graph's vectors in inPlaceSpans chunks, unless ChunkVectors
// fixes the grid.
func (o Options) inPlaceChunkSizeFor(total int) int {
	if o.ChunkVectors > 0 {
		return o.ChunkVectors
	}
	return sched.ChunkSize(total, inPlaceSpans)
}

// chunkSizeFor resolves the chunk size in vectors for a given total.
func (o Options) chunkSizeFor(total, workers int) int {
	if o.ChunkVectors > 0 {
		return o.ChunkVectors
	}
	return sched.ChunkSize(total, sched.DefaultChunks(workers))
}
