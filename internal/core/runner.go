package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// Runner is the shared, immutable half of the execution stack: the
// preprocessed graph, the worker pool, the simulated NUMA topology, and the
// precomputed partitions. A Runner is safe for concurrent use — any number
// of goroutines may call Run/RunCtx on one Runner at once; each run executes
// in its own ExecContext while the pool multiplexes their chunks over one
// worker set.
type Runner struct {
	g       *Graph
	opt     Options
	pool    *sched.Pool
	ownPool bool
	topo    numa.Topology

	// pullPart partitions the VSD vector array across simulated NUMA nodes.
	pullPart  numa.Partition
	propOwner numa.PropertyMap

	// mergeSlots sizes each ExecContext's merge buffer for the worst-case
	// chunk count across phases.
	mergeSlots int

	// pullChunkSize is the chunk size of the scheduler-aware pull grid and
	// inPlaceChunkSize that of the coarse grid in-place rounds run on. Fixed
	// at construction, so every run of this Runner schedules identically.
	pullChunkSize, inPlaceChunkSize int

	closeOnce sync.Once
	// idle holds released ExecContexts for reuse. Not a sync.Pool, which
	// keeps the Runner holding it, graph included, reachable for two GC
	// cycles after its last use (DESIGN.md §7).
	idleMu sync.Mutex
	idle   []*ExecContext
}

// ExecContext is the per-run half: property and accumulator arrays, frontier
// structures, merge buffer, counters, and the run's cancellation state. An
// ExecContext is single-tenant (one run at a time), but distinct contexts
// of one Runner execute concurrently. The embedded Runner provides the
// shared graph, pool, and topology.
type ExecContext struct {
	*Runner

	props, accum []uint64
	front, next  *frontier.Dense
	conv         *frontier.Dense
	touched      *frontier.Dense
	mergeBuf     *sched.MergeBuffer
	// scatterBuf holds the push kernels' ordered (dst, value) contribution
	// lists for order-sensitive combine operators; grown lazily by the
	// kernels that use it.
	scatterBuf *sched.ScatterBuffer
	// frontList and touchedList are the list-driven round's vertex lists and
	// nodeStates is dispatch's per-node ticket state, all recycled across
	// iterations rather than reallocated by each one.
	frontList, touchedList []uint32
	nodeStates             []nodeState
	// contrib is the rank-sum span pull's gather target, rank[v]·scale[v] per
	// vertex, refreshed before every such sweep (pullSpanBody); nil until a
	// rank-sum program first runs on this context.
	contrib []float64

	// edgeRec and vertexRec collect counters when Options.Record is set;
	// nil otherwise.
	edgeRec, vertexRec *perfmodel.Recorder

	// tracer accumulates the per-phase breakdown when Options.Trace is set;
	// nil otherwise. Only the driver goroutine writes it — workers feed the
	// chunk counter below, which the driver swaps out at phase boundaries.
	tracer *obs.TraceBuilder
	// phaseChunks counts chunks executed since the last phase boundary
	// (written by workers, hence atomic); the pendingMerge pair is
	// driver-goroutine-only.
	phaseChunks      atomic.Int64
	pendingMergeWall time.Duration
	pendingMergeN    int

	// pullsDone counts the pull iterations the current run has completed —
	// the evidence inPlace waits for. Driver goroutine only.
	pullsDone int

	// ctx and done carry the run's cancellation signal; chunk-claim loops
	// poll done so cancellation takes effect within one chunk boundary.
	ctx  context.Context
	done <-chan struct{}

	// runErr holds the first panic captured inside this run's chunks. A
	// non-nil value aborts the run at the next chunk boundary (aborted), and
	// runLoop surfaces it as a typed error; the pool, the Runner, and every
	// concurrent sibling run are unaffected.
	runErr atomic.Pointer[sched.PanicError]
}

// NewRunner creates a Runner for graph g.
func NewRunner(g *Graph, opt Options) *Runner {
	opt = opt.withDefaults()
	r := &Runner{g: g, opt: opt}
	if opt.Pool != nil {
		r.pool = opt.Pool
	} else {
		r.pool = sched.NewPool(opt.Workers)
		r.ownPool = true
	}
	r.opt.Workers = r.pool.Workers()
	r.topo = opt.Topology
	if r.topo.Nodes == 0 {
		r.topo = numa.SingleNode(r.pool.Workers())
	}
	if r.topo.TotalWorkers() != r.pool.Workers() {
		panic("core: topology workers != pool workers")
	}
	r.pullPart = numa.PartitionEven(g.VSD.NumVectors(), r.topo.Nodes)
	r.propOwner = numa.NewPropertyMap(g.N, r.topo)
	maxVectors := g.VSD.NumVectors()
	if g.CSC.NumEdges() > maxVectors {
		maxVectors = g.CSC.NumEdges() // scalar kernels chunk over edges
	}
	chunkSize := r.opt.chunkSizeFor(maxVectors, r.pool.Workers())
	// Two slots per chunk: the scheduler-aware kernels use one (the trailing
	// partial aggregate), the traditional kernels use a pair (prefix and
	// suffix boundary runs). The in-place grid is never the finer one.
	r.mergeSlots = 2 * (sched.NumChunks(maxVectors, chunkSize) + r.topo.Nodes)
	r.pullChunkSize = r.opt.chunkSizeFor(g.VSD.NumVectors(), r.pool.Workers())
	r.inPlaceChunkSize = r.opt.inPlaceChunkSizeFor(g.VSD.NumVectors())
	return r
}

// inPlace reports whether the run's next scheduler-aware pull round reads
// fresh values inside a chunk (pullSABody): the program declares the
// monotone-min trait, the run is not the paper configuration, and it has
// already completed inPlaceAfter pull iterations.
func (ec *ExecContext) inPlace(p apps.Program) bool {
	return ec.pullsDone >= inPlaceAfter && !ec.opt.AblateFrontierWork && apps.IsMonotoneMin(p)
}

// pullChunkFor resolves the grid of the run's next scheduler-aware pull
// round, in vectors per chunk.
func (ec *ExecContext) pullChunkFor(p apps.Program) int {
	if ec.inPlace(p) {
		return ec.inPlaceChunkSize
	}
	return ec.pullChunkSize
}

// Close releases the Runner's pool if it owns one. Close is idempotent.
func (r *Runner) Close() {
	r.closeOnce.Do(func() {
		if r.ownPool {
			r.pool.Close()
		}
	})
}

// Graph returns the preprocessed graph.
func (r *Runner) Graph() *Graph { return r.g }

// Pool returns the worker pool.
func (r *Runner) Pool() *sched.Pool { return r.pool }

// NewContext allocates a fresh ExecContext for this Runner. Callers that
// drive phases manually (benchmark harnesses) create one explicitly;
// Run/RunCtx recycle contexts internally.
func (r *Runner) NewContext() *ExecContext {
	n := r.g.N
	ec := &ExecContext{
		Runner:     r,
		props:      make([]uint64, n),
		accum:      make([]uint64, n),
		front:      frontier.NewDense(n),
		next:       frontier.NewDense(n),
		conv:       frontier.NewDense(n),
		touched:    frontier.NewDense(n),
		mergeBuf:   sched.NewMergeBuffer(r.mergeSlots),
		scatterBuf: sched.NewScatterBuffer(0),
		ctx:        context.Background(),
	}
	if r.opt.Record {
		ec.edgeRec = perfmodel.NewRecorder(r.pool.Workers())
		ec.vertexRec = perfmodel.NewRecorder(r.pool.Workers())
	}
	if r.opt.Trace {
		ec.tracer = &obs.TraceBuilder{}
	}
	return ec
}

// acquire recycles an idle ExecContext, or makes one. The props array may
// have been detached by a previous release (run results hand it to the
// caller), so it is reallocated on demand.
func (r *Runner) acquire() *ExecContext {
	r.idleMu.Lock()
	var ec *ExecContext
	if n := len(r.idle); n > 0 {
		ec, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.idleMu.Unlock()
	if ec == nil {
		return r.NewContext()
	}
	if ec.props == nil {
		ec.props = make([]uint64, r.g.N)
	}
	return ec
}

// release returns an ExecContext to the idle list. The caller must have
// detached any state it handed out (Result.Props).
func (r *Runner) release(ec *ExecContext) {
	ec.ctx, ec.done = context.Background(), nil
	ec.runErr.Store(nil)
	r.idleMu.Lock()
	r.idle = append(r.idle, ec)
	r.idleMu.Unlock()
	if r.opt.OnRelease != nil {
		r.opt.OnRelease()
	}
}

// Props exposes the property lanes (valid after Init or a phase run).
func (ec *ExecContext) Props() []uint64 { return ec.props }

// Frontier exposes the current frontier.
func (ec *ExecContext) Frontier() *frontier.Dense { return ec.front }

// Init resets all state for a fresh run of program p.
func (ec *ExecContext) Init(p apps.Program) {
	p.InitProps(ec.props)
	id := p.Identity()
	for i := range ec.accum {
		ec.accum[i] = id
	}
	ec.front.Clear()
	ec.next.Clear()
	ec.conv.Clear()
	p.InitFrontier(ec.front)
	p.InitConverged(ec.conv)
	ec.mergeBuf.Reset()
	// Drain any scatter contributions a previous aborted run left behind so
	// they cannot fold into this run's accumulators. (After a completed run
	// the slots are already empty, so this is free.)
	ec.scatterBuf.Merge(func(uint32, uint64) {})
	ec.edgeRec.Reset()
	ec.vertexRec.Reset()
	if ec.tracer != nil {
		ec.tracer.Reset()
	}
	ec.phaseChunks.Store(0)
	ec.pendingMergeWall = 0
	ec.pendingMergeN = 0
	ec.pullsDone = 0
}

// cancelled reports whether the run's context is done. The check is a
// non-blocking channel poll, cheap enough to sit on the chunk-claim path.
func (ec *ExecContext) cancelled() bool {
	if ec.done == nil {
		return false
	}
	select {
	case <-ec.done:
		return true
	default:
		return false
	}
}

// aborted reports whether the run should stop claiming chunks — either its
// context ended or a chunk panicked.
func (ec *ExecContext) aborted() bool {
	return ec.runErr.Load() != nil || ec.cancelled()
}

// guard is the deferred recover for phase chunk bodies: the first panic is
// recorded (with stack) and the run aborts at the next chunk boundary, while
// the worker, the pool, and sibling runs continue.
func (ec *ExecContext) guard() {
	if r := recover(); r != nil {
		ec.runErr.CompareAndSwap(nil, sched.NewPanicError(r))
	}
}

// runChunk executes one phase chunk under guard. The core/chunk failpoint
// sits here so fault-injection tests can make exactly one chunk of one run
// blow up.
func (ec *ExecContext) runChunk(body func(rg sched.Range, chunkID, tid, node int), rg sched.Range, chunkID, tid, node int) {
	defer ec.guard()
	if err := fault.Inject("core/chunk"); err != nil {
		panic(err)
	}
	ec.countChunk()
	body(rg, chunkID, tid, node)
}

// countChunk feeds the phase tracer's chunk counter; called by every chunk
// execution path (dispatch, the sparse edge loop, the static vertex loops).
func (ec *ExecContext) countChunk() {
	if ec.tracer != nil {
		ec.phaseChunks.Add(1)
	}
}

// takeMerge drains the merge wall time the edge-phase kernels accumulated
// via noteMerge. Driver goroutine only.
func (ec *ExecContext) takeMerge() (wall time.Duration, n int) {
	wall, n = ec.pendingMergeWall, ec.pendingMergeN
	ec.pendingMergeWall, ec.pendingMergeN = 0, 0
	return wall, n
}

// noteMerge records one merge fold's wall time. The merge runs on the
// driver goroutine inside the edge-phase window; runLoop subtracts this from
// the edge wall so the merge phase is not double-counted.
func (ec *ExecContext) noteMerge(wall time.Duration) {
	if ec.tracer == nil {
		return
	}
	ec.pendingMergeWall += wall
	ec.pendingMergeN++
}

// nodeState is one simulated NUMA node's chunk-ticket state within a
// dispatch.
type nodeState struct {
	lo, numChunks, chunkBase int
	next                     atomic.Int64
	_                        [64]byte // keep counters off shared lines
}

// dispatch hands contiguous chunks of [0, total) to workers, restricted to
// each worker's simulated NUMA node partition (part must partition the same
// space). Chunk ids are globally unique and stable for a given (total,
// chunkSize, topology), so the merge buffer can be preallocated. body
// receives the chunk range, its global id, the worker id, and the node.
// When the run's context is cancelled, no further chunks are claimed;
// in-flight chunks complete.
func (ec *ExecContext) dispatch(part numa.Partition, chunkSize int, rec *perfmodel.Recorder, body func(rg sched.Range, chunkID, tid, node int)) {
	nodes := part.Nodes()
	if len(ec.nodeStates) < nodes {
		ec.nodeStates = make([]nodeState, nodes)
	}
	states := ec.nodeStates[:nodes]
	base := 0
	for n := 0; n < nodes; n++ {
		lo, hi := part.Range(n)
		states[n].lo = lo
		states[n].numChunks = sched.NumChunks(hi-lo, chunkSize)
		states[n].chunkBase = base
		states[n].next.Store(0)
		base += states[n].numChunks
	}
	if base == 0 {
		return
	}
	ec.mergeBuf.Grow(base)
	ec.pool.Run(func(tid int) {
		node := ec.topo.NodeOf(tid)
		st := &states[node]
		_, hi := part.Range(node)
		for {
			if ec.aborted() {
				return
			}
			local := int(st.next.Add(1)) - 1
			if local >= st.numChunks {
				return
			}
			lo := st.lo + local*chunkSize
			end := lo + chunkSize
			if end > hi {
				end = hi
			}
			if rec != nil {
				start := time.Now()
				ec.runChunk(body, sched.Range{Lo: lo, Hi: end}, st.chunkBase+local, tid, node)
				rec.AddBusy(tid, time.Since(start))
			} else {
				ec.runChunk(body, sched.Range{Lo: lo, Hi: end}, st.chunkBase+local, tid, node)
			}
		}
	})
}

// Result reports a completed run.
type Result struct {
	// Props holds the final property lanes. The slice is owned by the
	// caller; it is never aliased by a later run.
	Props []uint64
	// Iterations counts Edge+Vertex rounds; PullIterations and
	// PushIterations split them by selected engine, and SparseIterations
	// counts rounds served by the sparse-frontier extension (a subset of
	// PushIterations).
	Iterations, PullIterations, PushIterations, SparseIterations int
	// EdgeTime and VertexTime are cumulative phase wall times.
	EdgeTime, VertexTime time.Duration
	// Total is the end-to-end wall time, excluding graph preprocessing.
	Total time.Duration
	// EdgeCounters and VertexCounters aggregate the perfmodel counters
	// (zero unless Options.Record).
	EdgeCounters, VertexCounters perfmodel.Counters
	// EdgeProfile is the Fig 5b Work/Merge/Write/Idle breakdown.
	EdgeProfile perfmodel.Breakdown
	// Trace is the per-phase breakdown (empty unless Options.Trace).
	Trace obs.RunTrace
	// Mode is the engine mode the run was configured with.
	Mode EngineMode
	// Seeded reports that the run started from RunCtx's warm seed rather
	// than the program's cold init. False for a seeded call means the seed
	// failed to apply and the run degraded to a cold start.
	Seeded bool
}

// Run executes program p from a cold start for at most maxIters iterations
// (frontier-driven programs stop early when the frontier empties) and
// returns the result: RunCtx on a background context with no seed. Run is
// safe to call concurrently on one Runner.
func Run(r *Runner, p apps.Program, maxIters int) Result {
	res, _ := RunCtx(context.Background(), r, p, maxIters, nil)
	return res
}

// RunCtx executes program p for at most maxIters iterations, starting from
// seed, or from the program's cold init when seed is nil. Result.Seeded
// reports whether the seed actually applied; when it did not (wrong shape,
// or an injected fault) the run executed from the cold init instead.
//
// The run stops within one scheduler chunk boundary of ctx being cancelled
// (including its deadline passing) and returns the partial result alongside
// a non-nil error wrapping ctx.Err(). A panic anywhere in the run — a chunk
// body, a program callback, the iteration driver — is captured as a
// *sched.PanicError wrapped in the returned error; the Runner, its pool, and
// concurrent sibling runs stay healthy. Props then reflect the last fully
// applied iteration.
func RunCtx(ctx context.Context, r *Runner, p apps.Program, maxIters int, seed *Seed) (res Result, err error) {
	ec := r.acquire()
	ec.ctx = ctx
	ec.done = ctx.Done()
	func() {
		// Last-resort containment for panics outside guarded chunks (program
		// callbacks on the driver goroutine, frontier bookkeeping, or a
		// *PanicError rethrown by a void pool wrapper).
		defer func() {
			if rec := recover(); rec != nil {
				pe := sched.NewPanicError(rec)
				err = fmt.Errorf("core: run panicked after %d iterations: %w", res.Iterations, pe)
			}
		}()
		res, err = runLoop(ec, p, maxIters, seed)
	}()
	res.Props = ec.props
	ec.props = nil // ownership passes to the caller
	r.release(ec)
	return res, err
}

// runLoop is the iteration loop: per iteration, the frontier census, the
// direction choice (Policy.Choose), then either one fused list-driven round
// or a full Edge phase (its ordered merge included) followed by the Vertex
// phase and the frontier publish (DESIGN.md §13). It stops at maxIters, when
// the frontier empties, or when the run aborts (cancelled or panicked).
func runLoop(ec *ExecContext, p apps.Program, maxIters int, seed *Seed) (Result, error) {
	start := time.Now()
	ec.Init(p)
	var res Result
	res.Mode = ec.opt.Mode
	if seed != nil {
		res.Seeded = applySeed(ec, p, seed)
	}
	usesFrontier := p.UsesFrontier()
	policy := Policy{
		PullOnly:             ec.opt.Mode == EnginePullOnly,
		PushOnly:             ec.opt.Mode == EnginePushOnly,
		DegreeShareThreshold: ec.opt.PullDegreeShare,
	}

	// cs is the current iteration's census; degreeShare reads it.
	var cs census
	// The degree-sum term sends a low-density, hub-heavy frontier to pull.
	// That pays only where the pull scan can stop early — at a converged
	// destination or a saturated gather; a program that gathers every
	// in-edge regardless (SSSP) runs such iterations faster as a dense-scan
	// push (EXPERIMENTS.md, "Direction-rule sweep"), so it gets no term.
	var degreeShare func() float64
	if kind, _ := apps.KindOf(p); p.TracksConverged() || kind == apps.FusedMinSrc {
		degreeShare = func() float64 {
			if cs.list != nil {
				// The census already summed the list's out-degrees.
				return float64(cs.outEdges) / float64(ec.g.Edges)
			}
			return ec.frontierDegreeShare()
		}
	}

	for i := 0; i < maxIters && !ec.aborted(); i++ {
		// One census per iteration feeds the convergence vote, the direction
		// choice and the trace, keeping the three consistent.
		st := Status{UsesFrontier: usesFrontier, Density: 1}
		if usesFrontier {
			cs = ec.takeCensus()
			if cs.count == 0 {
				break
			}
			st.Density = float64(cs.count) / float64(ec.g.N)
			st.DegreeShare = degreeShare
			st.SparseOK = ec.sparseOK(cs)
		}
		p.PreIteration(ec.props)

		dir := policy.Choose(st)
		switch dir {
		case DirSparse:
			chunks := cs.chunks(ec.pool.Workers())
			t0 := time.Now()
			touched := runEdgePushSparse(ec, p, cs.list, chunks)
			t1 := time.Now()
			edgeWall := t1.Sub(t0)
			res.EdgeTime += edgeWall
			ec.traceEdge(obs.PhaseEdgePush, edgeWall, st.Density)
			runVertexSparse(ec, p, touched, chunks == 1)
			vertexWall := time.Since(t1)
			res.VertexTime += vertexWall
			ec.traceVertex(vertexWall, st.Density)
			res.PushIterations++
			res.SparseIterations++
		default:
			t0 := time.Now()
			ph := obs.PhaseEdgePush
			if dir == DirPull {
				RunEdgePull(ec, p)
				ph = obs.PhaseEdgePull
			} else {
				RunEdgePush(ec, p)
			}
			edgeWall := time.Since(t0)
			res.EdgeTime += edgeWall
			ec.traceEdge(ph, edgeWall, st.Density)
			t1 := time.Now()
			RunVertex(ec, p)
			vertexWall := time.Since(t1)
			res.VertexTime += vertexWall
			ec.traceVertex(vertexWall, st.Density)
			if dir == DirPull {
				res.PullIterations++
				ec.pullsDone++
			} else {
				res.PushIterations++
			}
		}
		res.Iterations++
		ec.noteDirection(dir.Mark())
	}

	res.Total = time.Since(start)
	res.EdgeCounters = ec.edgeRec.Total()
	res.VertexCounters = ec.vertexRec.Total()
	res.EdgeProfile = ec.edgeRec.Profile()
	if ec.tracer != nil {
		res.Trace = ec.tracer.Trace()
	}
	if pe := ec.runErr.Load(); pe != nil {
		return res, fmt.Errorf("core: run aborted after %d iterations: %w", res.Iterations, pe)
	}
	if err := ec.ctx.Err(); err != nil {
		return res, fmt.Errorf("core: run cancelled after %d iterations: %w", res.Iterations, err)
	}
	return res, nil
}

// publishFrontier installs the just-built next frontier as the current one.
func (ec *ExecContext) publishFrontier() {
	ec.front, ec.next = ec.next, ec.front
}

// frontierDegreeShare returns the current frontier's out-degree sum as a
// share of all edges — the lazy degree-sum term of the hybrid heuristic
// (Policy.DegreeShareThreshold). Only invoked when the density test alone
// would choose push, so the O(frontier) walk is paid exactly when the
// decision is in doubt.
func (ec *ExecContext) frontierDegreeShare() float64 {
	if ec.g.Edges == 0 {
		return 0
	}
	var sum uint64
	ec.front.ForEach(func(v uint32) {
		sum += uint64(ec.g.CSR.Degree(v))
	})
	return float64(sum) / float64(ec.g.Edges)
}

// noteDirection appends one iteration's direction mark to the run trace.
func (ec *ExecContext) noteDirection(mark byte) {
	if ec.tracer == nil {
		return
	}
	ec.tracer.AddDirection(mark)
}

// traceEdge records a completed edge phase: the merge fold ran inside the
// edge window on the driver goroutine, so its wall time is subtracted here
// and reported as its own phase — the sum of per-phase walls then tiles the
// iteration instead of double-counting the merge.
func (ec *ExecContext) traceEdge(ph obs.Phase, edgeWall time.Duration, density float64) {
	if ec.tracer == nil {
		return
	}
	chunks := ec.phaseChunks.Swap(0)
	mergeWall, mergeN := ec.takeMerge()
	if mergeWall > edgeWall {
		mergeWall = edgeWall // clock skew guard; keeps both walls nonnegative
	}
	ec.tracer.AddPhase(ph, edgeWall-mergeWall, chunks, density)
	if mergeN > 0 {
		ec.tracer.AddPhase(obs.PhaseMerge, mergeWall, 0, density)
	}
}

// traceVertex records a completed vertex phase.
func (ec *ExecContext) traceVertex(wall time.Duration, density float64) {
	if ec.tracer == nil {
		return
	}
	ec.tracer.AddPhase(obs.PhaseVertex, wall, ec.phaseChunks.Swap(0), density)
}

// RunVertex executes the Vertex phase: apply aggregates, reset accumulators,
// build the next frontier, and swap it in. Statically scheduled (§5: the
// work is regular enough that load balancing is not a problem). The body is
// the program's fused-kind arm where it has one (vertexArm), vertexBody
// otherwise.
func RunVertex(r *ExecContext, p apps.Program) {
	t0 := time.Now()
	body := vertexPhaseBody(r, p)
	r.next.Clear()
	r.pool.StaticFor(r.g.N, func(rg sched.Range, tid int) {
		if r.aborted() {
			return
		}
		defer r.guard()
		r.countChunk()
		body(rg, tid)
	})
	r.publishFrontier()
	if r.vertexRec != nil {
		r.vertexRec.Wall += time.Since(t0)
	}
}

// vertexBody builds the generic Vertex-phase range body, which calls the
// program's own Apply per lane: every fused kind without a Vertex arm (rank
// sums, sssp) and every unfused program (kcore, lp, tc), and every Scalar
// run. The loop invariants are hoisted into the closure. It snapshots the
// next-frontier words, which swap on publish, so it is rebuilt every
// iteration. Every write is either per-vertex state owned by the range or an
// atomic OR into the shared bitmaps, so ranges run concurrently.
func vertexBody(r *ExecContext, p apps.Program) func(rg sched.Range, tid int) {
	identity := p.Identity()
	tracksConv := p.TracksConverged()
	nextWords := r.next.Words()
	convWords := r.conv.Words()
	// A frontier-driven program leaves a vertex whose aggregate is Identity
	// exactly as it is — Apply(old, Identity, v) == (old, false), the
	// precondition of the list-driven round, which the registry conformance
	// suite enforces — so a 4-lane group nothing reached is skipped whole:
	// no Apply, no stores, no counter. AblateFrontierWork restores the
	// paper's every-vertex Vertex phase.
	skipIdle := p.UsesFrontier() && !r.opt.AblateFrontierWork
	return func(rg sched.Range, tid int) {
		var c perfmodel.Counters
		start := time.Now()
		apply := func(v int) {
			nv, changed := p.Apply(r.props[v], r.accum[v], uint32(v))
			r.props[v] = nv
			r.accum[v] = identity
			c.SharedWrites += 2
			if changed {
				atomic.OrUint64(&nextWords[v>>6], 1<<(uint(v)&63))
				if tracksConv {
					atomic.OrUint64(&convWords[v>>6], 1<<(uint(v)&63))
				}
			}
		}
		if r.opt.Scalar {
			for v := rg.Lo; v < rg.Hi; v++ {
				apply(v)
			}
		} else {
			// Vectorized Vertex phase: four lanes per step with one bounds
			// check per vector and frontier bits coalesced into a single
			// atomic OR per group. §6.2 found this phase memory-bandwidth-
			// bound; here, with an indirect Apply per lane, it is call-bound
			// instead, which is why cc and bfs run a fused-kind arm with
			// Apply inlined (vertexArm).
			v := rg.Lo
			for ; v+vec.Lanes <= rg.Hi; v += vec.Lanes {
				agg := vec.Load(r.accum, v)
				if skipIdle && agg[0] == identity && agg[1] == identity &&
					agg[2] == identity && agg[3] == identity {
					continue
				}
				old := vec.Load(r.props, v)
				var changedMask uint64
				for lane := 0; lane < vec.Lanes; lane++ {
					nv, changed := p.Apply(old[lane], agg[lane], uint32(v+lane))
					old[lane] = nv
					if changed {
						changedMask |= 1 << lane
					}
				}
				vec.Store(r.props, v, old)
				vec.Store(r.accum, v, vec.Broadcast(identity))
				c.SharedWrites += 2 * vec.Lanes
				if changedMask != 0 {
					// Lanes are consecutive vertices: shift the lane mask
					// into bit position, splitting across two frontier words
					// when the group straddles a boundary.
					off := uint(v) & 63
					lo := changedMask << off
					if lo != 0 {
						atomic.OrUint64(&nextWords[v>>6], lo)
						if tracksConv {
							atomic.OrUint64(&convWords[v>>6], lo)
						}
					}
					if off > 64-vec.Lanes {
						if hi := changedMask >> (64 - off); hi != 0 {
							atomic.OrUint64(&nextWords[v>>6+1], hi)
							if tracksConv {
								atomic.OrUint64(&convWords[v>>6+1], hi)
							}
						}
					}
				}
			}
			for ; v < rg.Hi; v++ {
				apply(v)
			}
		}
		if r.vertexRec != nil {
			r.vertexRec.Record(tid, c)
			r.vertexRec.AddBusy(tid, time.Since(start))
		}
	}
}

// firstTop returns the top-level vertex of vector vi in array a — the
// scheduler-aware StartChunk initialization.
func firstTop(a *vsparse.Array, vi int) uint32 {
	return uint32(vsparse.DecodeTop(a.Vector(vi)))
}
