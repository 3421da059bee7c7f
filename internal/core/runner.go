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
	pullPart numa.Partition
	// owned holds, per node, the vertices whose properties it owns
	// (numa.PropertyMap). Owner is monotone, so each node's share is one
	// range, and a Record run classifies a read with one compare.
	owned []ownedRange

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
	// nil otherwise. Only the driver goroutine writes it, folding in each
	// round's record (round).
	tracer *obs.TraceBuilder

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
	r.owned = ownedRanges(g.N, r.topo)
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

// runChunk executes one phase chunk; every phase runs its chunks here. The
// first panic is recorded (with stack) and the run aborts at the next chunk
// boundary, while the worker, the pool, and sibling runs continue. The
// core/chunk failpoint sits here so fault-injection tests can make exactly
// one chunk of one run blow up. A non-nil rec (an Edge phase under Record)
// is charged the chunk's busy time: the only clock a chunk reads.
func (ec *ExecContext) runChunk(rec *perfmodel.Recorder, body func(rg sched.Range, chunkID, tid, node int), rg sched.Range, chunkID, tid, node int) {
	defer func() {
		if r := recover(); r != nil {
			ec.runErr.CompareAndSwap(nil, sched.NewPanicError(r))
		}
	}()
	if err := fault.Inject("core/chunk"); err != nil {
		panic(err)
	}
	if rec == nil {
		body(rg, chunkID, tid, node)
		return
	}
	start := time.Now()
	body(rg, chunkID, tid, node)
	rec.AddBusy(tid, time.Since(start))
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
// in-flight chunks complete. dispatch serves Edge phases only, and returns
// the number of chunks it cut.
func (ec *ExecContext) dispatch(part numa.Partition, chunkSize int, body func(rg sched.Range, chunkID, tid, node int)) int {
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
		return 0
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
			ec.runChunk(ec.edgeRec, body, sched.Range{Lo: lo, Hi: end}, st.chunkBase+local, tid, node)
		}
	})
	return base
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
	// EdgeProfile is the Fig 5b Work/Merge/Idle breakdown.
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
// direction choice (policy.Choose), then either one fused list-driven round
// or a full Edge phase (its ordered merge included), each followed by the
// Vertex phase and the frontier publish (DESIGN.md §13), and the round's
// record folded into the Result (fold). It stops at maxIters, when the
// frontier empties, or when the run aborts (cancelled or panicked).
func runLoop(ec *ExecContext, p apps.Program, maxIters int, seed *Seed) (Result, error) {
	start := time.Now()
	ec.Init(p)
	var res Result
	res.Mode = ec.opt.Mode
	if seed != nil {
		res.Seeded = applySeed(ec, p, seed)
	}
	usesFrontier := p.UsesFrontier()
	pol := policy{
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
		st := status{UsesFrontier: usesFrontier, Density: 1}
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

		rd := round{dir: pol.Choose(st), density: st.Density}
		// The Vertex phase visits every vertex, or only the list-driven
		// round's touched destinations, inline when its Edge phase was.
		var list []uint32
		n, inline := ec.g.N, false
		t0 := time.Now()
		switch rd.dir {
		case dirSparse:
			chunks := cs.chunks(ec.pool.Workers())
			rd.edgeCost = runEdgePushSparse(ec, p, cs.list, chunks)
			list, n, inline = ec.touchedList, len(ec.touchedList), chunks == 1
		case dirPull:
			rd.edgeCost = RunEdgePull(ec, p)
		default:
			rd.edgeCost = RunEdgePush(ec, p)
		}
		t1 := time.Now()
		rd.vertexChunks = runVertex(ec, p, list, n, inline)
		rd.edge, rd.vertex = t1.Sub(t0), time.Since(t1)
		ec.fold(&res, &rd)
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
// (policy.DegreeShareThreshold). Only invoked when the density test alone
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

// edgeCost is an Edge phase's share of its round's record, reported by the
// driver that ran the phase: the chunks it cut and, when it ran a merge
// fold, that the fold ran and its wall.
type edgeCost struct {
	edgeChunks int
	merged     bool
	merge      time.Duration
}

// round is one iteration's record. runLoop reads the clock once per phase
// boundary — the Edge phase's start, the Vertex phase's start and its end;
// a merge fold reads its own start and end — and the census and the
// direction choice stay outside both walls.
type round struct {
	dir     direction
	density float64
	// edge is the Edge phase's wall, its merge fold included.
	edge, vertex time.Duration
	edgeCost
	vertexChunks int
}

// fold adds one round's record to the Result, the tracer and, under Record,
// the Edge Recorder. The trace reports the merge fold as a phase of its own
// and the rest of the Edge wall as the Edge phase's, so the traced walls sum
// to EdgeTime and VertexTime exactly, and the Recorder's Wall is EdgeTime.
func (ec *ExecContext) fold(res *Result, rd *round) {
	res.Iterations++
	res.EdgeTime += rd.edge
	res.VertexTime += rd.vertex
	ph := obs.PhaseEdgePush
	if rd.dir == dirPull {
		ph = obs.PhaseEdgePull
		res.PullIterations++
		ec.pullsDone++
	} else {
		res.PushIterations++
	}
	if rd.dir == dirSparse {
		res.SparseIterations++
	}
	if ec.edgeRec != nil {
		ec.edgeRec.Wall += rd.edge
		ec.edgeRec.MergeTime += rd.merge
	}
	if t := ec.tracer; t != nil {
		t.AddPhase(ph, rd.edge-rd.merge, int64(rd.edgeChunks), rd.density)
		if rd.merged {
			t.AddPhase(obs.PhaseMerge, rd.merge, 0, rd.density)
		}
		t.AddPhase(obs.PhaseVertex, rd.vertex, int64(rd.vertexChunks), rd.density)
		t.AddDirection(rd.dir.Mark())
	}
}

// firstTop returns the top-level vertex of vector vi in array a — the
// scheduler-aware StartChunk initialization.
func firstTop(a *vsparse.Array, vi int) uint32 {
	return uint32(vsparse.DecodeTop(a.Vector(vi)))
}
