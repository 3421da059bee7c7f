// Package ligra reimplements the engine pattern of Ligra (Shun & Blelloch,
// PPoPP '13), the paper's primary comparison framework: edgeMap over a
// frontier that switches between a sparse (list + push) and a dense
// (bitmask + pull) representation by the |F| + outEdges(F) > E/20 heuristic,
// with a sequential pull inner loop per destination. The Fig 1
// configurations (PushS, PushP, PushP+PullS, PushP+PullP, and the NoSync
// variant) are selectable, as is the forced-dense "Ligra-Dense" variant of
// Figs 12–13.
package ligra

import (
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/baselines/base"
	"repro/internal/csr"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/sched"
)

// LoopConfig selects the Fig 1 loop-parallelization configuration.
type LoopConfig int

const (
	// PushPPullS is standard Ligra: push with both loops parallelized, pull
	// with a sequential inner loop.
	PushPPullS LoopConfig = iota
	// PushS parallelizes only the push engine's outer loop and disables the
	// pull engine.
	PushS
	// PushP parallelizes both push loops and disables the pull engine.
	PushP
	// PushPPullP additionally parallelizes the pull inner loop with atomics.
	PushPPullP
	// PushPPullPNoSync is PushPPullP with the atomics removed (incorrect
	// under parallelism; Fig 1 plots it to isolate conflict cost).
	PushPPullPNoSync
)

// String names the configuration as in Fig 1.
func (l LoopConfig) String() string {
	switch l {
	case PushS:
		return "PushS"
	case PushP:
		return "PushP"
	case PushPPullS:
		return "PushP+PullS"
	case PushPPullP:
		return "PushP+PullP"
	case PushPPullPNoSync:
		return "PushP+PullP-NoSync"
	default:
		return "LoopConfig(?)"
	}
}

// pullEnabled reports whether the configuration contains a pull engine.
func (l LoopConfig) pullEnabled() bool { return l != PushS && l != PushP }

// Mode forces an engine choice.
type Mode int

const (
	// Auto switches representations by the E/20 heuristic.
	Auto Mode = iota
	// ForceDensePull always uses the dense pull engine (Ligra-Dense).
	ForceDensePull
	// ForcePush always uses the push engine over the dense frontier
	// (Ligra-Push in Fig 11).
	ForcePush
)

// Config parameterizes the engine.
type Config struct {
	// Pool supplies workers; if nil one is created with Workers workers.
	Pool    *sched.Pool
	Workers int
	// Loops selects the Fig 1 configuration (default PushPPullS).
	Loops LoopConfig
	// Mode forces an engine (default Auto).
	Mode Mode
	// ThresholdDivisor is the denominator of the sparse→dense switch
	// (default 20: switch when |F| + outEdges(F) > E/20).
	ThresholdDivisor int
}

// Engine is a prepared Ligra instance for one graph.
type Engine struct {
	cfg     Config
	pool    *sched.Pool
	ownPool bool
	csrM    *csr.Matrix
	cscM    *csr.Matrix
	outDeg  []int
	edges   int
	st      *base.State
	touched *frontier.Dense

	cachedEdgeDst []uint32
}

// atomicOr sets bit v in a frontier word array without racing concurrent
// setters.
func atomicOr(words []uint64, v uint32) {
	atomic.OrUint64(&words[v>>6], 1<<(v&63))
}

// New prepares an engine for g.
func New(g *graph.Graph, cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	if cfg.Pool != nil {
		e.pool = cfg.Pool
	} else {
		e.pool = sched.NewPool(cfg.Workers)
		e.ownPool = true
	}
	if e.cfg.ThresholdDivisor <= 0 {
		e.cfg.ThresholdDivisor = 20
	}
	e.csrM = csr.FromGraph(g, false)
	e.cscM = csr.FromGraph(g, true)
	e.outDeg = g.OutDegrees()
	e.edges = g.NumEdges()
	e.st = base.NewState(g.NumVertices, e.pool)
	e.touched = frontier.NewDense(g.NumVertices)
	return e
}

// Close releases the engine's pool if it owns one.
func (e *Engine) Close() {
	if e.ownPool {
		e.pool.Close()
	}
}

// Name identifies the framework variant.
func (e *Engine) Name() string {
	switch e.cfg.Mode {
	case ForceDensePull:
		return "Ligra-Dense"
	case ForcePush:
		return "Ligra-Push"
	}
	if e.cfg.Loops != PushPPullS {
		return "Ligra[" + e.cfg.Loops.String() + "]"
	}
	return "Ligra"
}

// Run executes p for at most maxIters rounds.
func (e *Engine) Run(p apps.Program, maxIters int) base.Result {
	e.st.Init(p)
	var res base.Result
	usesFrontier := p.UsesFrontier()
	for res.Iterations < maxIters {
		if usesFrontier && e.st.Front.Empty() {
			break
		}
		p.PreIteration(e.st.Props)
		sparse := false
		switch {
		case e.cfg.Mode == ForcePush:
			e.densePush(p)
		case e.cfg.Mode == ForceDensePull:
			e.densePull(p)
		case !usesFrontier:
			if e.cfg.Loops.pullEnabled() {
				e.densePull(p)
			} else {
				e.densePush(p)
			}
		default:
			front := e.st.Front.AppendTo(nil)
			frontEdges := 0
			for _, v := range front {
				frontEdges += e.outDeg[v]
			}
			if !e.cfg.Loops.pullEnabled() || len(front)+frontEdges <= e.edges/e.cfg.ThresholdDivisor {
				sparse = true
				e.sparsePush(p, front)
			} else {
				e.densePull(p)
			}
		}
		if sparse {
			res.SparseIterations++
			e.st.ApplyCandidates(p, e.touched.AppendTo(nil))
		} else {
			e.st.ApplyAll(p)
		}
		res.Iterations++
	}
	res.Props = e.st.Props
	return res
}

// sparsePush is Ligra's sparse edgeMap: process only the frontier's
// out-edges, collecting touched destinations. With PushP-class configs the
// edges of the frontier are flattened and load-balanced across workers
// (Ligra's edge-based scheduling); with PushS each frontier vertex's edge
// list runs serially inside one task.
func (e *Engine) sparsePush(p apps.Program, front []uint32) {
	e.touched.Clear()
	touchedWords := e.touched.Words()
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	weighted := p.Weighted() && e.csrM.Weights != nil

	scatter := func(src uint32) {
		srcVal := e.st.Props[src]
		neigh := e.csrM.Edges(src)
		var ws []float32
		if weighted {
			ws = e.csrM.EdgeWeights(src)
		}
		for i, dst := range neigh {
			if tracksConv && e.st.Conv.Contains(dst) {
				continue
			}
			var w float32
			if ws != nil {
				w = ws[i]
			}
			base.CASCombine(p, &e.st.Accum[dst], p.Message(srcVal, src, w), skipEqual)
			atomicOr(touchedWords, dst)
		}
	}

	if e.cfg.Loops == PushS {
		// Outer loop only: one task per frontier vertex.
		e.pool.ParallelFor(len(front), 1, func(i, tid int) { scatter(front[i]) })
		return
	}
	// Both loops parallel: flatten the frontier's edges with a prefix sum
	// and chunk the edge space.
	offsets := make([]int, len(front)+1)
	for i, v := range front {
		offsets[i+1] = offsets[i] + e.outDeg[v]
	}
	totalEdges := offsets[len(front)]
	if totalEdges == 0 {
		return
	}
	chunk := sched.ChunkSize(totalEdges, sched.DefaultChunks(e.pool.Workers()))
	e.pool.DynamicFor(totalEdges, chunk, func(rg sched.Range, _, _ int) {
		// Locate the first frontier vertex covering rg.Lo.
		vi := searchOffsets(offsets, rg.Lo)
		for pos := rg.Lo; pos < rg.Hi; {
			for offsets[vi+1] <= pos {
				vi++
			}
			src := front[vi]
			lo := e.csrM.Index[src] + uint64(pos-offsets[vi])
			hi := e.csrM.Index[src] + uint64(min(offsets[vi+1], rg.Hi)-offsets[vi])
			srcVal := e.st.Props[src]
			for idx := lo; idx < hi; idx++ {
				dst := e.csrM.Neigh[idx]
				if p.TracksConverged() && e.st.Conv.Contains(dst) {
					continue
				}
				var w float32
				if weighted {
					w = e.csrM.Weights[idx]
				}
				base.CASCombine(p, &e.st.Accum[dst], p.Message(srcVal, src, w), skipEqual)
				atomicOr(touchedWords, dst)
			}
			pos = min(offsets[vi+1], rg.Hi)
		}
	})
}

// densePull is Ligra's dense edgeMap: outer loop over destinations. The
// inner loop runs per the LoopConfig: sequential (PullS, standard Ligra),
// parallel with atomics (PullP), or parallel without synchronization
// (PullP-NoSync).
func (e *Engine) densePull(p apps.Program) {
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	weighted := p.Weighted() && e.cscM.Weights != nil
	identity := p.Identity()

	innerParallel := e.cfg.Loops == PushPPullP || e.cfg.Loops == PushPPullPNoSync
	if !innerParallel {
		chunk := sched.ChunkSize(e.st.N, sched.DefaultChunks(e.pool.Workers()))
		e.pool.DynamicFor(e.st.N, chunk, func(rg sched.Range, _, _ int) {
			for v := rg.Lo; v < rg.Hi; v++ {
				dst := uint32(v)
				if tracksConv && e.st.Conv.Contains(dst) {
					continue
				}
				acc := identity
				neigh := e.cscM.Edges(dst)
				var ws []float32
				if weighted {
					ws = e.cscM.EdgeWeights(dst)
				}
				for i, s := range neigh {
					if usesFrontier && !e.st.Front.Contains(s) {
						continue
					}
					var w float32
					if ws != nil {
						w = ws[i]
					}
					acc = p.Combine(acc, p.Message(e.st.Props[s], s, w))
				}
				if acc != identity {
					e.st.Accum[dst] = p.Combine(e.st.Accum[dst], acc)
				}
			}
		})
		return
	}
	// Inner loop parallelized with the traditional interface: a flat
	// parallel loop over all in-edges, one shared update per edge — the
	// configuration Fig 1 shows collapsing.
	skipEqual := p.SkipEqualWrites()
	noSync := e.cfg.Loops == PushPPullPNoSync
	total := e.cscM.NumEdges()
	edgeDst := e.edgeDst()
	chunk := sched.ChunkSize(total, sched.DefaultChunks(e.pool.Workers()))
	e.pool.DynamicFor(total, chunk, func(rg sched.Range, _, _ int) {
		for i := rg.Lo; i < rg.Hi; i++ {
			dst := edgeDst[i]
			if tracksConv && e.st.Conv.Contains(dst) {
				continue
			}
			s := e.cscM.Neigh[i]
			if usesFrontier && !e.st.Front.Contains(s) {
				continue
			}
			var w float32
			if weighted {
				w = e.cscM.Weights[i]
			}
			msg := p.Message(e.st.Props[s], s, w)
			if noSync {
				merged := p.Combine(e.st.Accum[dst], msg)
				if !(skipEqual && merged == e.st.Accum[dst]) {
					e.st.Accum[dst] = merged
				}
			} else {
				base.CASCombine(p, &e.st.Accum[dst], msg, skipEqual)
			}
		}
	})
}

// densePush scans every source (checking the frontier bit when the program
// uses one) and scatters its out-edges with atomics.
func (e *Engine) densePush(p apps.Program) {
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	weighted := p.Weighted() && e.csrM.Weights != nil
	chunk := sched.ChunkSize(e.st.N, sched.DefaultChunks(e.pool.Workers()))
	e.pool.DynamicFor(e.st.N, chunk, func(rg sched.Range, _, _ int) {
		for v := rg.Lo; v < rg.Hi; v++ {
			src := uint32(v)
			if usesFrontier && !e.st.Front.Contains(src) {
				continue
			}
			srcVal := e.st.Props[src]
			neigh := e.csrM.Edges(src)
			var ws []float32
			if weighted {
				ws = e.csrM.EdgeWeights(src)
			}
			for i, dst := range neigh {
				if tracksConv && e.st.Conv.Contains(dst) {
					continue
				}
				var w float32
				if ws != nil {
					w = ws[i]
				}
				base.CASCombine(p, &e.st.Accum[dst], p.Message(srcVal, src, w), skipEqual)
			}
		}
	})
}

// edgeDst lazily materializes the destination of each CSC edge position.
func (e *Engine) edgeDst() []uint32 {
	if e.cachedEdgeDst == nil {
		e.cachedEdgeDst = make([]uint32, e.cscM.NumEdges())
		for v := uint32(0); int(v) < e.cscM.N; v++ {
			for i := e.cscM.Index[v]; i < e.cscM.Index[v+1]; i++ {
				e.cachedEdgeDst[i] = v
			}
		}
	}
	return e.cachedEdgeDst
}

func searchOffsets(offsets []int, pos int) int {
	lo, hi := 0, len(offsets)-2
	for lo < hi {
		mid := (lo + hi) / 2
		if offsets[mid+1] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
