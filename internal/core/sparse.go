package core

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/fault"
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

// census is one iteration's view of the frontier, taken once by runLoop and
// shared by the convergence vote, the direction policy, the list-driven
// round and the trace.
type census struct {
	// count is |F|.
	count int
	// list is F in ascending order and outEdges its out-degree sum, set only
	// when F fits the list-driven round's budget.
	list     []uint32
	outEdges int
}

// takeCensus concatenates the parts the last Vertex phase took, when that
// was a list-driven round's (DESIGN.md §13 says why a dense round does not).
// Otherwise it walks the frontier bitmap once for the count and, while the
// list-driven round is still possible, once more for the list and its
// out-degree sum: a census past the budget carries neither. The round is a
// push kernel, so pull-only runs never take it.
func (r *ExecContext) takeCensus() census {
	budget := r.g.Edges / sparseThresholdDivisor
	list, count, outEdges := r.frontList[:0], 0, 0
	if r.carried {
		r.carried = false
		for _, part := range r.nextParts {
			list = append(list, part.list...)
			outEdges += part.outEdges
		}
		count = len(list)
	} else {
		count = r.front.Count()
		if r.opt.AblateFrontierWork || r.opt.Mode == EnginePullOnly || count > budget {
			return census{count: count}
		}
		deg := r.g.outDegrees()
	walk:
		for wi, w := range r.front.Words() {
			for ; w != 0; w &= w - 1 {
				v := uint32(wi<<6 | bits.TrailingZeros64(w))
				list = append(list, v)
				if outEdges += int(deg[v]); count+outEdges > budget {
					break walk
				}
			}
		}
	}
	r.frontList = list
	if count == 0 || count+outEdges > budget {
		return census{count: count}
	}
	return census{count: count, list: list, outEdges: outEdges}
}

// work is the size of a list-driven round over the census's frontier: its
// vertices plus their out-edges (meaningful only when list is set).
func (cs census) work() int { return cs.count + cs.outEdges }

// chunks is the number of chunks the list-driven round over this frontier
// asks for: as many as the scheduler's default, but none smaller than
// sparseInlineWork units of work. Chunks are contiguous ranges of a sorted
// list folded in chunk-id order, so any count folds exactly as one would.
func (cs census) chunks(workers int) int {
	return max(1, min(cs.work()/sparseInlineWork, sched.DefaultChunks(workers)))
}

// listRound is what a run resolves at its first list-driven round: p's fused
// kind, its Vertex lanes (selects), its flags and the census's out-degrees.
type listRound struct {
	p                                apps.Program // nil until resolved
	fz                               fuse
	sel, once, tracksConv, skipEqual bool
	identity                         uint64
	deg                              []uint32
}

// runEdgePushSparse is the list-driven round's Edge-Push driver: it scatters
// only the frontier's out-edges through listPush, collecting the set of
// touched destinations into r.touchedList for the list-driven Vertex phase,
// cutting the list into the given number of chunks. A cut that comes out as
// one chunk — a short list, or one hub whose out-edges alone make the work —
// is one plain listChunk call on the driver goroutine (the touched list is no
// longer than the out-edge sum, so it fits too), with plain writes; the
// others run on the pool. It returns the chunks it cut (the caller runs the
// Vertex phase inline when that is one) and its merge fold's wall.
func runEdgePushSparse(r *ExecContext, p apps.Program, front []uint32, chunks int) edgeCost {
	if r.lr.p == nil {
		sel, once := selects(r, p)
		r.lr = listRound{p: p, fz: fuseFor(p, p.Weighted() && r.g.VSS.Weighted), sel: sel, once: once,
			tracksConv: p.TracksConverged(), skipEqual: p.SkipEqualWrites(), identity: p.Identity(), deg: r.g.outDegrees()}
	}
	// The frontier list is sorted, so chunk ranges — and the scatter
	// buffer's fold of an ordered program's contributions — are stable
	// across runs.
	chunk := sched.ChunkSize(len(front), chunks)
	cost := edgeCost{edgeChunks: sched.NumChunks(len(front), chunk)}
	if r.lr.fz.ordered {
		r.scatterBuf.Grow(cost.edgeChunks)
	}
	if cost.edgeChunks == 1 {
		r.listChunk(front, sched.Range{Hi: len(front)}, 0, 0, true, true)
	} else {
		r.pool.DynamicFor(len(front), chunk, func(rg sched.Range, chunkID, tid int) {
			if !r.aborted() {
				r.listChunk(front, rg, chunkID, tid, true, false)
			}
		})
	}
	if r.lr.fz.ordered {
		cost.merged, cost.merge = true, mergeScatter(r, &r.lr.fz)
	}
	r.touchedList = r.touched.drain(r.touchedList[:0])
	return cost
}

// listChunk runs one chunk of a list-driven round's Edge (push) or Vertex
// phase under runChunk's contract, with no closure before the lanes, and
// charges its counters and (Edge) busy time under Record.
func (r *ExecContext) listChunk(list []uint32, rg sched.Range, chunkID, tid int, push, inline bool) {
	defer r.recoverChunk()
	if err := fault.Inject("core/chunk"); err != nil {
		panic(err)
	}
	switch {
	case !push:
		r.vertexRec.Record(tid, r.listSelect(list, rg, tid))
	case r.edgeRec == nil:
		r.listPush(list, rg, chunkID, inline)
	default:
		start := time.Now()
		r.edgeRec.Record(tid, r.listPush(list, rg, chunkID, inline))
		r.edgeRec.AddBusy(tid, time.Since(start))
	}
}

// touchedSet is the list-driven round's reached destinations: a bit per
// vertex and one per word, set by the insert that finds the word zero, so a
// round's drain reads and zeroes only the words it touched.
type touchedSet struct {
	words, sum []uint64
}

// add inserts v; the caller is the set's only writer.
func (s touchedSet) add(v uint32) {
	w := &s.words[v>>6]
	if *w == 0 {
		s.sum[v>>12] |= 1 << (v >> 6 & 63)
	}
	*w |= 1 << (v & 63)
}

// addAtomic inserts v beside other goroutines' inserts. The old word comes
// from a CAS: Go 1.24.0's amd64 atomic.OrUint64, its result used, can
// clobber a live register (summary bits landed in the wrong place).
func (s touchedSet) addAtomic(v uint32) {
	w, bit := &s.words[v>>6], uint64(1)<<(v&63)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			if old == 0 {
				atomic.OrUint64(&s.sum[v>>12], 1<<(v>>6&63))
			}
			return
		}
	}
}

// drain appends the set's vertices to buf in ascending order, empties the
// set and returns buf.
func (s touchedSet) drain(buf []uint32) []uint32 {
	for si, sum := range s.sum {
		for ; sum != 0; sum &= sum - 1 {
			wi := si<<6 | bits.TrailingZeros64(sum)
			for w := s.words[wi]; w != 0; w &= w - 1 {
				buf = append(buf, uint32(wi)<<6|uint32(bits.TrailingZeros64(w)))
			}
			s.words[wi] = 0
		}
		s.sum[si] = 0
	}
	return buf
}
