package core

import (
	"time"

	"repro/internal/apps"
	"repro/internal/sched"
)

// This file implements the list-driven round the paper explicitly defers
// (§5: "Unlike Grazelle, other engines support dynamically switching
// between sparse and dense representations for frontiers ... we quantify
// the impact of this implementation issue in §6.3 but otherwise leave it to
// future work"). When the frontier is small the Edge phase iterates only
// the frontier's out-vectors (via the VSS vertex index) and the Vertex phase
// applies only the touched destinations — eliminating the whole-array scans
// that cost Grazelle the BFS comparison of Fig 13. The hybrid runs it
// whenever the budget below holds; Options.AblateFrontierWork turns it off.

// sparseThresholdDivisor mirrors Ligra's heuristic: go sparse when
// |F| + outEdges(F) <= E / 20.
const sparseThresholdDivisor = 20

// sparseInlineWork is the size, in frontier vertices plus out-edges, of the
// smallest chunk a list-driven round is split into: a smaller chunk costs
// more to hand out than to run, and a round that cannot be cut into two of
// them runs on the driver goroutine without touching the pool — its two
// fork-join barriers would cost more than the work they split.
const sparseInlineWork = 1024

// census is one iteration's view of the frontier, taken once in Begin and
// shared by the convergence vote, the direction policy, the list-driven
// round and the trace.
type census struct {
	// count is |F|.
	count int
	// list is F in ascending order, materialized only when count alone fits
	// the sparse budget; outEdges is then its out-degree sum.
	list     []uint32
	outEdges int
}

// takeCensus walks the frontier bitmap once for the count and, when the
// list-driven round is still possible, once more for the list and its
// out-degree sum. The round is a push kernel, so pull-only runs never take
// it.
func (r *ExecContext) takeCensus() census {
	cs := census{count: r.front.Count()}
	if r.opt.AblateFrontierWork || r.opt.Mode == EnginePullOnly ||
		cs.count == 0 || cs.count > r.g.Edges/sparseThresholdDivisor {
		return cs
	}
	r.frontList = r.front.AppendTo(r.frontList[:0])
	cs.list = r.frontList
	for _, v := range cs.list {
		cs.outEdges += r.g.CSR.Degree(v)
	}
	return cs
}

// work is the size of a list-driven round over the census's frontier: its
// vertices plus their out-edges (meaningful only when list is set).
func (cs census) work() int { return cs.count + cs.outEdges }

// sparseOK reports whether the frontier fits the list-driven round's budget.
func (r *ExecContext) sparseOK(cs census) bool {
	return cs.list != nil && cs.work() <= r.g.Edges/sparseThresholdDivisor
}

// chunks is the number of chunks the list-driven round over this frontier is
// cut into: as many as the scheduler's default, but none smaller than
// sparseInlineWork units of work. One chunk runs inline on the driver
// goroutine (the touched list is no longer than the out-edge sum, so it fits
// too). Chunks are contiguous ranges of a sorted list folded in chunk-id
// order, so any count folds exactly as one would.
func (cs census) chunks(workers int) int {
	return max(1, min(cs.work()/sparseInlineWork, sched.DefaultChunks(workers)))
}

// runEdgePushSparse is the list-driven round's Edge-Push driver: it scatters
// only the frontier's out-edges through pushBody, collecting the set of
// touched destinations, in the given number of chunks (one runs inline on
// the driver goroutine, the others on the pool). It returns the touched
// list for the list-driven Vertex phase. Under Record the round charges its
// body's counters and per-chunk busy time and the phase's Wall, but no
// InvalidLanes and no Local/Remote split.
func runEdgePushSparse(r *ExecContext, p apps.Program, front []uint32, chunks int) []uint32 {
	inline := chunks == 1
	rec := r.edgeRec
	// The clock is read only for a Recorder: a mesh search runs hundreds of
	// these rounds, most of them one inline chunk.
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	fz := fuseFor(p, p.Weighted() && r.g.VSS.Weights != nil)
	r.touched.Clear()
	body := pushBody(r, &fz, front, inline)

	if inline {
		if fz.ordered {
			r.scatterBuf.Grow(1)
		}
		r.runChunk(body, sched.Range{Lo: 0, Hi: len(front)}, 0, 0, 0)
	} else {
		chunk := sched.ChunkSize(len(front), chunks)
		// The frontier list is sorted, so chunk ranges — and the scatter
		// buffer's fold of an ordered program's contributions — are stable
		// across runs.
		if fz.ordered {
			r.scatterBuf.Grow(sched.NumChunks(len(front), chunk))
		}
		r.pool.DynamicFor(len(front), chunk, func(rg sched.Range, chunkID, tid int) {
			if !r.aborted() {
				r.runChunk(body, rg, chunkID, tid, 0)
			}
		})
	}
	if fz.ordered {
		mergeScatter(r, &fz)
	}
	if rec != nil {
		rec.Wall += time.Since(t0)
	}
	r.touchedList = r.touched.AppendTo(r.touchedList[:0])
	return r.touchedList
}
