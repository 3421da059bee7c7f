package core

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vec"
	"repro/internal/vsparse"
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

// runEdgePushSparse scatters only the frontier's out-edges (vectorized over
// VSS), collecting the set of touched destinations, in the given number of
// chunks (one runs inline). It returns the touched list for the sparse
// Vertex phase.
func runEdgePushSparse(r *ExecContext, p apps.Program, front []uint32, chunks int) []uint32 {
	t0 := time.Now()
	inline := chunks == 1
	a := r.g.VSS
	words := a.Words
	index := a.Index
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	weighted := p.Weighted() && a.Weights != nil
	props, accum := r.props, r.accum
	rec := r.edgeRec
	fz := fuseFor(p, weighted)

	r.touched.Clear()
	touchedWords := r.touched.Words()

	body := func(rg sched.Range, chunkID, tid, _ int) {
		var c perfmodel.Counters
		var out []sched.Contribution
		if fz.ordered {
			out = r.scatterBuf.Take(chunkID)
		}
		start := time.Now()
		for i := rg.Lo; i < rg.Hi; i++ {
			src := front[i]
			for vi := index[src]; vi < index[src+1]; vi++ {
				base := vi * vec.Lanes
				v0, v1, v2, v3 := words[base], words[base+1], words[base+2], words[base+3]
				c.VectorsProcessed++
				mask := signMask4(v0, v1, v2, v3)
				neigh := vec.U64x4{v0 & vsparse.VertexMask, v1 & vsparse.VertexMask,
					v2 & vsparse.VertexMask, v3 & vsparse.VertexMask}
				for m := mask; m != 0; m = m.Rest() {
					lane := m.First()
					dst := uint32(neigh[lane])
					if tracksConv && r.conv.Contains(dst) {
						c.FrontierSkips++
						continue
					}
					var w float32
					if weighted {
						w = a.Weights[base+lane]
					}
					msg := fz.stepMsg(props, uint64(src), w)
					c.EdgesProcessed++
					switch {
					case fz.ordered:
						out = append(out, sched.Contribution{Dst: dst, Val: msg})
						c.TLSWrites++
					case inline:
						// The driver goroutine is the only writer.
						plainCombine(&fz, &accum[dst], msg, skipEqual, &c)
					default:
						casCombine(&fz, &accum[dst], msg, skipEqual, &c)
					}
					if inline {
						touchedWords[dst>>6] |= 1 << (dst & 63)
					} else {
						atomic.OrUint64(&touchedWords[dst>>6], 1<<(dst&63))
					}
				}
			}
		}
		if fz.ordered {
			r.scatterBuf.Save(chunkID, out)
		}
		if rec != nil {
			rec.Record(tid, c)
			rec.AddBusy(tid, time.Since(start))
		}
	}

	if inline {
		if fz.ordered {
			r.scatterBuf.Grow(1)
		}
		r.runChunk(body, sched.Range{Lo: 0, Hi: len(front)}, 0, 0, 0)
	} else {
		chunk := sched.ChunkSize(len(front), chunks)
		// Order-sensitive programs route contributions through the scatter
		// buffer for a deterministic fold (see edgePushVectorized); the
		// frontier list is sorted, so chunk ranges are stable across runs.
		if fz.ordered {
			r.scatterBuf.Grow(sched.NumChunks(len(front), chunk))
		}
		err := r.pool.DynamicForCtx(r.ctx, len(front), chunk, func(rg sched.Range, chunkID, tid int) {
			r.countChunk()
			body(rg, chunkID, tid, 0)
		})
		// A chunk panic surfaces here as a *sched.PanicError (the pool
		// contains it); record it so the run aborts. Context errors are
		// already observed by the iteration driver through aborted().
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			r.runErr.CompareAndSwap(nil, pe)
		}
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

// runVertexSparse is the list-driven round's Vertex phase: it applies only
// the touched destinations, in ascending order, and rebuilds the next
// frontier from them. Untouched vertices hold identity aggregates and cannot
// change (Apply(old, Identity, v) == (old, false) for every frontier-driven
// program; the registry conformance suite holds them to it), so skipping them
// is exact. cc and bfs run their fused kind's Vertex arm over the list
// (vertexArm), every other program the scalar loop of sparseVertexBody. An
// inline round has one writer, so every frontier word it builds is a plain
// OR.
func runVertexSparse(r *ExecContext, p apps.Program, touched []uint32, inline bool) {
	t0 := time.Now()
	r.next.Clear()
	body := sparseVertexBody(r, p, touched)
	if inline {
		r.runChunk(func(rg sched.Range, _, tid, _ int) { body(rg, tid) },
			sched.Range{Lo: 0, Hi: len(touched)}, 0, 0, 0)
	} else {
		r.pool.StaticFor(len(touched), func(rg sched.Range, tid int) {
			if r.aborted() {
				return
			}
			defer r.guard()
			r.countChunk()
			body(rg, tid)
		})
	}
	r.publishFrontier()
	if r.vertexRec != nil {
		r.vertexRec.Wall += time.Since(t0)
	}
}

// sparseVertexBody returns the body of a list-driven round's Vertex phase
// over touched: p's fused-kind arm, or a scalar loop over the program's own
// Apply, with an atomic OR per changed vertex.
func sparseVertexBody(r *ExecContext, p apps.Program, touched []uint32) func(rg sched.Range, tid int) {
	if arm := vertexArm(r, p, touched); arm != nil {
		return arm
	}
	identity := p.Identity()
	tracksConv := p.TracksConverged()
	nextWords := r.next.Words()
	convWords := r.conv.Words()
	return func(rg sched.Range, tid int) {
		var c perfmodel.Counters
		start := time.Now()
		for i := rg.Lo; i < rg.Hi; i++ {
			v := touched[i]
			nv, changed := p.Apply(r.props[v], r.accum[v], v)
			r.props[v] = nv
			r.accum[v] = identity
			c.SharedWrites += 2
			if changed {
				atomic.OrUint64(&nextWords[v>>6], 1<<(v&63))
				if tracksConv {
					atomic.OrUint64(&convWords[v>>6], 1<<(v&63))
				}
			}
		}
		if r.vertexRec != nil {
			r.vertexRec.Record(tid, c)
			r.vertexRec.AddBusy(tid, time.Since(start))
		}
	}
}
