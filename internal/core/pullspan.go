package core

import (
	"math"

	"repro/internal/apps"
	"repro/internal/sched"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// pullsBySpan reports whether the scheduler-aware pull of p runs as
// pullSpanBody. Three kinds of program qualify. One gathers every in-edge
// every iteration (no frontier, no converged set) and its aggregate is a rank
// sum or an operator the engine does not classify. Another is a FusedMinProp
// program (cc), frontier-gated or not, synchronous or in place: its
// per-vector test is folded into the chunk walk's gathers, and its in-place
// read into the walk's window. The third is a FusedMinSrc program (bfs): it
// tracks converged vertices, but its chunk walk tests conv once per run, as
// the vector walk's early exit does. Converged sets otherwise, the other
// frontier kinds (sssp's in-place rounds among them), the paper
// configuration's bfs rounds (AblateFrontierWork: no early exit) and the
// full-vector ablation keep pullSABody's vector-by-vector walk. Record picks
// no body: a Record run's counters come from countChunk, whichever body ran.
func (ec *ExecContext) pullsBySpan(p apps.Program, kind apps.FusedKind) bool {
	switch {
	case ec.opt.AblateFullVector:
		return false
	case kind == apps.FusedMinSrc:
		return p.UsesFrontier() && !ec.opt.AblateFrontierWork
	case p.TracksConverged():
		return false
	case kind == apps.FusedMinProp:
		return true
	case kind == apps.FusedRankSum, kind == apps.FusedNone:
		return !ec.inPlace(p) && !p.UsesFrontier()
	}
	return false
}

// skipsZero reports whether the scheduler-aware pull of p passes over a
// destination whose label is already 0: cc's chunk walk does, except in the
// paper configuration (AblateFrontierWork), which walks every run.
func (ec *ExecContext) skipsZero(p apps.Program, kind apps.FusedKind) bool {
	return kind == apps.FusedMinProp && !ec.opt.AblateFrontierWork && ec.pullsBySpan(p, kind)
}

// pullSpanBody is the scheduler-aware chunk body of the programs pullsBySpan
// admits. Nothing in their Edge-Pull needs a branch per lane or a
// destination test per vector, so the chunk is walked by destination run
// instead of by vector. The runs that still take pullSABody's vector walk are
// the ones pullsBySpan turns away.
//
// A FusedMinProp program hands the whole chunk to one vec.MinPropChunk call
// (the AVX2 VPGATHERDQ walk where the CPU has it): a frontier-gated round
// passes the frontier words, one whose frontier is full passes none, as
// pullSABody's gated rule decides. Interior runs are stored inside the call;
// the trailing (dst, acc) comes back for the merge slot. One call per chunk,
// not per run: on a mesh every run is one vector, and a per-run call's set-up
// and fold cost more than the vector (DESIGN.md §5).
//
// An in-place round (DESIGN.md §17) is the same call with the window on: a
// source inside the chunk's already-stored destinations [first, dst) is read
// as min(props, accum), the fresher value the call itself has just stored. It
// runs ungated, with no frontier gather: a monotone min's source outside the
// frontier has not changed since every destination last pulled it, so
// props[dst] ≤ props[src] already holds and reading it moves no lane, no
// Apply outcome and no iteration count (the equivalence matrix pins every
// round to the gated walk's).
//
// Every FusedMinProp round, gated, ungated or in place, also passes over a
// run whose destination's label is already 0, without reading its vectors or
// storing it (skipsZero; DESIGN.md §5, "A destination at 0"): Apply cannot
// move the least label, so no label, changed bit or iteration count moves. On
// the R-MAT analogs such runs are most of what the later rounds would gather.
//
// A FusedMinSrc program hands the chunk to one vec.MinSrcChunk call the same
// way, always with the frontier and the converged words: a run whose
// destination has converged is skipped whole, and any other ends at its
// first live lane, the run's minimum live source, as pullSABody's saturating
// arm ends it (TestMinSrcChunkMatchesVectorWalk pins every chunk, and the
// equivalence matrix every round, to that walk). It needs no props gather:
// its message is the source id.
//
// A rank sum hands the chunk to one vec.RankSumChunk call the same way (the
// AVX2 walk, one vgatherdpd per vector, where the CPU has it): each run is
// summed lane by lane, an interior one added to accum[dst] inside the call and
// the trailing one returned for the merge slot. A rank sum's per-edge term,
// props[n]·scale[n], is the same number on every out-edge of n, so building
// the sweep gathers the context's contrib array, the products multiplied out
// once per vertex: one array read per lane instead of two. The previous dense
// Vertex phase (rankBody) writes contrib beside the ranks, so only a run's
// first sweep, or one after a Vertex phase on another body, multiplies it out
// itself (refreshContrib, through currentContrib). Each product was already
// rounded on its own before it was added, so the lanes are the bits the
// per-edge product gave.
//
// An unclassified program reduces each run span — the run's vectors clipped
// to the chunk — through its own Message and Combine (laneFold), in a Go walk
// of the chunk run by run. No body here keeps a counter: countChunk charges a
// Record run's chunks after them.
//
// Every walk here takes the chunk one slab at a time (slabWalk): VSD's lanes
// lie in slabs of whole destination runs (vsparse.Slab), so a chunk that
// crosses a slab boundary is one call per slab it touches, each on that
// slab's words, and the run a call ends on at a boundary is complete and
// stored as an interior one.
//
// The chunk grid, the transition stores and the merge slots are pullSABody's:
// an interior run flushes to accum[dst], which no other chunk writes, and the
// chunk's last destination goes to its merge slot, folded in chunk order. The
// reduction order inside a rank-sum run is lane-wise — DESIGN.md §5 — and is
// the same for the assembly, its Go twin and laneFold; a min needs no order.
// So a run's bits depend on the graph and the chunk grid alone, as before.
func pullSpanBody(r *ExecContext, fz *fuse) func(rg sched.Range, chunkID, tid, node int) {
	p := fz.p
	a := r.g.VSD
	identity := p.Identity()
	props, accum := r.props, r.accum
	index := a.Index
	weighted := fz.weighted
	rankSum, minProp, minSrc := vec.RankSumChunk, vec.MinPropChunk, vec.MinSrcChunk
	if r.opt.AblateSIMD {
		rankSum, minProp, minSrc = vec.RankSumChunkGo, vec.MinPropChunkGo, vec.MinSrcChunkGo
	}
	switch fz.kind {
	case apps.FusedMinProp:
		// A full frontier passes every membership test: the round runs
		// ungated unless the paper configuration asks for the tests. An
		// in-place round runs ungated whatever the frontier holds (above).
		inPlace, skipZero := r.inPlace(p), r.skipsZero(p, fz.kind)
		var front []uint64
		if p.UsesFrontier() && !inPlace && (r.opt.AblateFrontierWork || !r.front.Full()) {
			front = r.front.Words()
		}
		walk := func(s *vsparse.Slab, first, dst, lo, hi int) (int, uint64) {
			return minProp(s.Words, s.Base, index, props, front, accum, first, dst, lo, hi, inPlace, skipZero)
		}
		store := func(dst int, acc uint64) { accum[dst] = min(accum[dst], acc) }
		return func(rg sched.Range, chunkID, tid, node int) {
			dst, acc := slabWalk(a, rg, walk, store)
			r.mergeBuf.Save(chunkID, uint32(dst), acc)
		}
	case apps.FusedMinSrc:
		frontWords, conv := r.front.Words(), r.conv.Words()
		walk := func(s *vsparse.Slab, _, dst, lo, hi int) (int, uint64) {
			return minSrc(s.Words, s.Base, index, frontWords, conv, accum, dst, lo, hi)
		}
		store := func(dst int, acc uint64) { accum[dst] = min(accum[dst], acc) }
		return func(rg sched.Range, chunkID, tid, node int) {
			dst, acc := slabWalk(a, rg, walk, store)
			r.mergeBuf.Save(chunkID, uint32(dst), acc)
		}
	case apps.FusedRankSum:
		contrib := r.currentContrib(fz.scale)
		walk := func(s *vsparse.Slab, _, dst, lo, hi int) (int, uint64) {
			var weights []float32
			if weighted {
				weights = s.Weights
			}
			return rankSum(s.Words, s.Base, index, contrib, weights, accum, dst, lo, hi)
		}
		store := func(dst int, acc uint64) {
			accum[dst] = math.Float64bits(math.Float64frombits(accum[dst]) + math.Float64frombits(acc))
		}
		return func(rg sched.Range, chunkID, tid, node int) {
			dst, acc := slabWalk(a, rg, walk, store)
			r.mergeBuf.Save(chunkID, uint32(dst), acc)
		}
	}
	return func(rg sched.Range, chunkID, tid, node int) {
		dst := firstTop(a, rg.Lo)
		for lo := rg.Lo; ; dst++ {
			// [lo, hi) is dst's share of the chunk; a destination without
			// in-edges owns no vectors.
			hi := min(index[dst+1], rg.Hi)
			if hi == lo {
				continue
			}
			// A run lies in one slab: its destination's.
			s := &a.Slabs[dst>>vsparse.SlabShift]
			var weights []float32
			if weighted {
				weights = s.Weights
			}
			acc := laneFold(fz, s.Words, weights, props, identity, lo-s.Base, hi-s.Base)
			if hi == rg.Hi {
				// FinishChunk (Listing 5): the trailing aggregate goes to
				// this chunk's private merge-buffer slot.
				r.mergeBuf.Save(chunkID, dst, acc)
				return
			}
			// Outer-loop transition (Listing 4): this chunk holds the final
			// vectors of dst, so the unsynchronized shared store is safe.
			if acc != identity {
				accum[dst] = fz.combine(accum[dst], acc)
			}
			lo = hi
		}
	}
}

// gathersContrib reports whether this context's Edge-Pull of the rank sum p
// gathers contrib: a vectorized, scheduler-aware pull (not Scalar's
// Compressed-Sparse walk, not the traditional variants, not a push-only run)
// that pullsBySpan admits. Only then does rankBody store contrib.
func (ec *ExecContext) gathersContrib(p apps.Program) bool {
	return !ec.opt.Scalar && ec.opt.Variant == PullSchedulerAware &&
		ec.opt.Mode != EnginePushOnly && ec.pullsBySpan(p, apps.FusedRankSum)
}

// InvalidateContrib marks the contrib array stale, so the next rank-sum
// Edge-Pull multiplies it out again (refreshContrib). An Edge-Pull phase
// timed on its own has no Vertex phase before it to write contrib, so each
// repetition calls this to pay for the products the engine's rank body
// writes in a run.
func (ec *ExecContext) InvalidateContrib() { ec.contribCurrent = false }

// contribArray returns the context's contrib array, allocated on first use.
func (r *ExecContext) contribArray() []float64 {
	if r.contrib == nil {
		r.contrib = make([]float64, r.g.N)
	}
	return r.contrib
}

// currentContrib returns the contrib array for a rank-sum sweep. The dense
// Vertex phase of a rank sum (rankBody) writes it beside the ranks, so it is
// stale only at the start of a run — after Init or a seed install — or after
// a Vertex phase that ran another body; only then is it refreshed.
func (r *ExecContext) currentContrib(scale []float64) []float64 {
	if !r.contribCurrent {
		r.refreshContrib(scale)
		r.contribCurrent = true
	}
	return r.contrib
}

// refreshContrib sets contrib[v] = props[v]·scale[v] for every vertex, each
// product rounded to float64 on its own exactly as step rounds it per edge.
// It runs on the driver goroutine before the pull's dispatch, when no chunk
// of this run is in flight, as one statically scheduled pass.
func (r *ExecContext) refreshContrib(scale []float64) {
	props, contrib := r.props, r.contribArray()
	r.pool.StaticFor(len(contrib), func(rg sched.Range, _ int) {
		for v := rg.Lo; v < rg.Hi; v++ {
			contrib[v] = float64(math.Float64frombits(props[v]) * scale[v])
		}
	})
}

// slabWalk walks chunk rg of VSD one slab at a time: walk gets one slab's
// share [lo, hi) of the chunk, the chunk's first destination and the first
// destination to look at in the share, and returns the run the share ends on.
// A share that ends before rg.Hi ends where its slab does, on a complete run,
// and store folds that run into accum as the kernels fold an interior one; a
// slab without vectors in the chunk is passed over. It returns the chunk's
// last run, for the merge slot. A chunk inside one slab is one call, as
// before slabs.
func slabWalk(a *vsparse.Array, rg sched.Range, walk func(s *vsparse.Slab, first, dst, lo, hi int) (int, uint64), store func(dst int, acc uint64)) (int, uint64) {
	first := int(firstTop(a, rg.Lo))
	dst, lo := first, rg.Lo
	for {
		s := dst >> vsparse.SlabShift
		hi := min(a.SlabEnd(s), rg.Hi)
		if hi == rg.Hi {
			return walk(&a.Slabs[s], first, dst, lo, hi)
		}
		if hi > lo {
			store(walk(&a.Slabs[s], first, dst, lo, hi))
			lo = hi
		}
		dst = (s + 1) << vsparse.SlabShift
	}
}

// laneFold reduces one run span, vectors [lo, hi), through the program's own
// Message and Combine in vec.RankSumChunk's order: lane k of every vector
// folds into its own partial aggregate, in vector order, and the span's
// aggregate is Combine(Combine(l0, l1), Combine(l2, l3)). A program the engine
// runs fused therefore gets the same bits run generic
// (TestFusedMatchesGenericExactly).
func laneFold(fz *fuse, words []uint32, weights []float32, props []uint64, identity uint64, lo, hi int) uint64 {
	l := [vec.Lanes]uint64{identity, identity, identity, identity}
	for i := lo * vec.Lanes; i < hi*vec.Lanes; i += vec.Lanes {
		for lane := 0; lane < vec.Lanes; lane++ {
			w := words[i+lane]
			if w&vsparse.ValidBit == 0 {
				continue
			}
			n := uint64(w & vsparse.VertexMask)
			var wt float32
			if weights != nil {
				wt = weights[i+lane]
			}
			l[lane] = fz.p.Combine(l[lane], fz.p.Message(props[n], uint32(n), wt))
		}
	}
	return fz.p.Combine(fz.p.Combine(l[0], l[1]), fz.p.Combine(l[2], l[3]))
}
