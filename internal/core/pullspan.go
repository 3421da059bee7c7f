package core

import (
	"math"

	"repro/internal/apps"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// pullsBySpan reports whether the scheduler-aware pull of p runs as
// pullSpanBody: the program gathers every in-edge every iteration (no
// frontier, no converged set) and its aggregate is a rank sum or an operator
// the engine does not classify. Frontier programs, in-place rounds and the
// full-vector ablation keep pullSABody's vector-by-vector walk.
func (ec *ExecContext) pullsBySpan(p apps.Program, kind apps.FusedKind) bool {
	return !p.UsesFrontier() && !p.TracksConverged() && !ec.opt.AblateFullVector && !ec.inPlace(p) &&
		(kind == apps.FusedRankSum || kind == apps.FusedNone)
}

// pullSpanBody is the scheduler-aware chunk body of a frontier-blind program.
// Nothing in such a program's Edge-Pull depends on a per-vector test, so the
// chunk is walked by run span instead of by vector: destinations come from
// VSD.Index, each one's vector run is clipped to the chunk, and the span is
// reduced in one call — vec.RankSumRun for a rank sum (the AVX2 vgatherqpd
// loop where the CPU has it), laneFold for anything else.
//
// A rank sum's per-edge term, props[n]·scale[n], is the same number on every
// out-edge of n, so building the body first multiplies it out once per vertex
// into the context's contrib array (refreshContrib) and the sweep gathers
// that: one array read per lane instead of two. Each product was already
// rounded on its own before it was added, so the lanes are the bits the
// per-edge product gave.
//
// The chunk grid, the transition stores and the merge slots are pullSABody's:
// an interior run flushes to accum[dst], which no other chunk writes, and the
// chunk's last destination goes to its merge slot, folded in chunk order. The
// reduction order inside a span is lane-wise — DESIGN.md §5 — and is the same
// for the assembly, its Go twin and laneFold, so a run's bits depend on the
// graph and the chunk grid alone, as before.
func pullSpanBody[P apps.Program](r *ExecContext, p P, fz fuse) func(rg sched.Range, chunkID, tid, node int) {
	a := r.g.VSD
	identity := p.Identity()
	props, accum := r.props, r.accum
	rec := r.edgeRec
	words, index := a.Words, a.Index
	var weights []float32
	if fz.weighted {
		weights = a.Weights
	}
	rankSum := vec.RankSumRun
	if r.opt.AblateSIMD {
		rankSum = vec.RankSumRunGo
	}
	var contrib []float64
	if fz.kind == apps.FusedRankSum {
		contrib = r.refreshContrib(fz.scale)
	}
	return func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		dst := firstTop(a, rg.Lo)
		for lo := rg.Lo; ; dst++ {
			// [lo, hi) is dst's share of the chunk; a destination without
			// in-edges owns no vectors.
			hi := index[dst+1]
			last := hi >= rg.Hi
			if last {
				hi = rg.Hi
			}
			if hi == lo {
				continue
			}
			span := words[lo*vec.Lanes : hi*vec.Lanes]
			var ws []float32
			if weights != nil {
				ws = weights[lo*vec.Lanes : hi*vec.Lanes]
			}
			var acc uint64
			if fz.kind == apps.FusedRankSum {
				acc = math.Float64bits(rankSum(span, contrib, ws))
			} else {
				acc = laneFold(p, span, ws, props, identity)
			}
			if rec != nil {
				countSpan(r, node, &c, span)
			}
			if last {
				// FinishChunk (Listing 5): the trailing aggregate goes to
				// this chunk's private merge-buffer slot.
				r.mergeBuf.Save(chunkID, dst, acc)
				break
			}
			// Outer-loop transition (Listing 4): this chunk holds the final
			// vectors of dst, so the unsynchronized shared store is safe.
			if acc != identity {
				accum[dst] = combine(p, &fz, accum[dst], acc)
				c.SharedWrites++
			}
			lo = hi
		}
		rec.Record(tid, c)
	}
}

// refreshContrib sets contrib[v] = props[v]·scale[v] for every vertex, each
// product rounded to float64 on its own exactly as step rounds it per edge,
// and returns the array. It runs on the driver goroutine between phases (the
// monolithic pull, or the partitioned coordinator's EdgeBegin), when no chunk
// of this run is in flight, as one statically scheduled pass.
func (r *ExecContext) refreshContrib(scale []float64) []float64 {
	if r.contrib == nil {
		r.contrib = make([]float64, r.g.N)
	}
	props, contrib := r.props, r.contrib
	r.pool.StaticFor(len(contrib), func(rg sched.Range, _ int) {
		for v := rg.Lo; v < rg.Hi; v++ {
			contrib[v] = float64(math.Float64frombits(props[v]) * scale[v])
		}
	})
	return contrib
}

// laneFold reduces one run span through the program's own Message and
// Combine in vec.RankSumRun's order: lane k of every vector folds into its
// own partial aggregate, in vector order, and the span's aggregate is
// Combine(Combine(l0, l1), Combine(l2, l3)). A program the engine runs fused
// therefore gets the same bits run generic (TestFusedMatchesGenericExactly).
func laneFold[P apps.Program](p P, words []uint64, weights []float32, props []uint64, identity uint64) uint64 {
	l := [vec.Lanes]uint64{identity, identity, identity, identity}
	for i := 0; i+vec.Lanes <= len(words); i += vec.Lanes {
		for lane := 0; lane < vec.Lanes; lane++ {
			w := words[i+lane]
			if w&vsparse.ValidBit == 0 {
				continue
			}
			n := w & vsparse.VertexMask
			var wt float32
			if weights != nil {
				wt = weights[i+lane]
			}
			l[lane] = p.Combine(l[lane], p.Message(props[n], uint32(n), wt))
		}
	}
	return p.Combine(p.Combine(l[0], l[1]), p.Combine(l[2], l[3]))
}

// countSpan charges one run span to the Record counters exactly as the
// vector-by-vector walk would have: every vector processed, every valid lane
// an edge gathered into thread-local state, every other lane invalid.
func countSpan(r *ExecContext, node int, c *perfmodel.Counters, words []uint64) {
	edges := uint64(0)
	for _, w := range words {
		if w&vsparse.ValidBit != 0 {
			edges++
			countLocality(r, node, c, w&vsparse.VertexMask)
		}
	}
	c.VectorsProcessed += uint64(len(words) / vec.Lanes)
	c.EdgesProcessed += edges
	c.TLSWrites += edges
	c.InvalidLanes += uint64(len(words)) - edges
}
