package core

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/csr"
	"repro/internal/numa"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// RunEdgePull executes one Edge-Pull phase with the configured variant and
// kernel (vectorized Vector-Sparse or scalar Compressed-Sparse). Aggregates
// land in the Runner's accumulator array; RunVertex consumes them.
func RunEdgePull(r *ExecContext, p apps.Program) {
	t0 := time.Now()
	switch {
	case r.opt.Variant == PullOuterOnly:
		edgePullOuterOnly(r, p)
	case r.opt.Scalar:
		switch r.opt.Variant {
		case PullSchedulerAware:
			edgePullSAScalar(r, p)
		default:
			edgePullTraditionalScalar(r, p, r.opt.Variant == PullTraditional)
		}
	case r.opt.Variant == PullSchedulerAware:
		edgePullSA(r, p)
	default:
		edgePullTraditional(r, p, r.opt.Variant == PullTraditional)
	}
	if r.edgeRec != nil {
		r.edgeRec.Wall += time.Since(t0)
	}
}

// edgePullSA is the flagship kernel: the scheduler-aware (§3), vectorized
// (§4) Edge-Pull inner loop — Listing 7 parallelized with the Listing 3-6
// hooks. It performs no synchronization: writes go to the chunk-local
// accumulator, to shared memory only on outer-loop transitions (at most one
// chunk contains each vertex's last vector), or to the chunk's private merge
// buffer slot.
func edgePullSA(r *ExecContext, p apps.Program) {
	if r.g.VSD.NumVectors() == 0 {
		return
	}
	fz := fuseFor(p, p.Weighted() && r.g.VSD.Weights != nil)
	r.dispatch(r.pullPart, r.pullChunkFor(p), r.edgeRec, pullSABody(r, &fz))
	mergeAccum(r, &fz)
}

// pullSABody builds the scheduler-aware chunk body with every loop invariant
// hoisted into the closure. It snapshots the frontier words, which swap on
// publish, so it is rebuilt every iteration; chunk-local state,
// single-writer transition stores, and merge slots keyed by chunk id make
// its chunks safe to run concurrently.
//
// Early exit: a destination whose gather can contribute nothing more is left
// by jumping vi to the end of its vector run, Index[dst+1] (the loop bound
// clips the jump at rg.Hi), instead of visiting every vector. Two cases
// qualify. A converged destination (TracksConverged) ignores all messages.
// A saturating program — FusedMinSrc, whose aggregate is the minimum live
// source id — is complete at its first live lane, because every VSD run is
// ascending by source (csr.FromGraph sorts each group). No chunk reads past
// its rg.Hi, so the chunk grid, the transition stores and the merge slots
// are those of the full scan; a run that straddles chunks yields one
// first-live-lane partial per chunk, and their min-fold is the first
// chunk's — the full scan's answer, bit for bit.
//
// Live-lane cost: a frontier-gated vector pays for the lanes that survive,
// not for four. The frontier test is one branch-free gather, the surviving
// lanes are walked bit by bit (Mask.First/Rest), the lane counters are taken
// only when a Recorder is attached, the transition flush combines through
// the fused kind, and an iteration whose frontier is full drops the test
// altogether. The last is frontier-work reduction like the early exit and
// sits under the same AblateFrontierWork; none of it changes which lanes are
// gathered or in what order.
//
// In-place pull (DESIGN.md §17): once a run of a program that declares the
// monotone-min trait has completed inPlaceAfter pull iterations, its pull
// rounds run on the coarse inPlaceSpans grid, and a source s inside the
// chunk's own already-flushed destination window [firstDst(chunk), dst) is
// read as Combine(props[s], accum[s]) — the transition store has just written
// accum[s] and this goroutine is its only writer — and the lane is live when
// that value is fresher than props[s], whether or not the frontier holds s.
// A label then crosses a whole chunk inside one iteration instead of one hop.
// The current destination's own run is still in acc (and its tail goes to the
// merge buffer), so it is never in the window; every source outside the
// window is read from props as the synchronous kernel reads it. Nothing
// another goroutine writes is read, so the result and the iteration count
// are functions of the graph and the chunk grid alone. The window is tested
// once per vector; a vector with no lane inside takes the paths above
// unchanged. cc's in-place rounds make the same read ungated inside
// vec.MinPropChunk (pullSpanBody); this one serves sssp, Record runs and the
// full-vector ablation.
//
// A frontier-blind program never comes this far: it has no per-vector test to
// make, and pulls by run span instead (pullSpanBody). Neither does a
// FusedMinProp program (cc), synchronous or in place: it walks the chunk in
// one vec.MinPropChunk call whose gathers make the frontier test and, in
// place, the window read. The in-place rounds this body still runs are
// sssp's, a Record run's (its counters are this walk's) and the full-vector
// ablation's.
func pullSABody(r *ExecContext, fz *fuse) func(rg sched.Range, chunkID, tid, node int) {
	p := fz.p
	if r.pullsBySpan(p, fz.kind) {
		return pullSpanBody(r, fz)
	}
	a := r.g.VSD
	identity := p.Identity()
	tracksConv := p.TracksConverged()
	weighted := fz.weighted
	frontWords := r.front.Words()
	props, accum := r.props, r.accum
	rec := r.edgeRec
	frontierWork := !r.opt.AblateFrontierWork
	saturates := frontierWork && fz.kind == apps.FusedMinSrc
	fullVector := !r.opt.AblateFullVector
	// A full frontier passes every membership test, so the iteration runs
	// unpredicated and gathers exactly the lanes the tests would have let
	// through. A saturating program keeps its tests: they are how it finds
	// the lane to stop at.
	gated := p.UsesFrontier() && !(frontierWork && !saturates && r.front.Full())
	inPlace := r.inPlace(p)
	fast := !gated && fullVector

	words := a.Words
	index := a.Index
	return func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		// StartChunk (Listing 3): TLS holds the previous destination and its
		// partially-aggregated value.
		prev := firstTop(a, rg.Lo)
		first := uint64(prev)
		acc := identity
		for vi := rg.Lo; vi < rg.Hi; vi++ {
			base := vi * vec.Lanes
			v0, v1, v2, v3 := words[base], words[base+1], words[base+2], words[base+3]
			dst := decodeTop4(v0, v1, v2, v3)
			if dst != prev {
				// Outer-loop transition (Listing 4): at most one chunk holds
				// the final inner iterations of prev, so this unsynchronized
				// shared store is safe.
				if acc != identity {
					accum[prev] = fz.combine(accum[prev], acc)
					c.SharedWrites++
				}
				prev, acc = dst, identity
			}
			c.VectorsProcessed++
			if tracksConv && r.conv.Contains(dst) {
				if rec != nil {
					valid := signMask4(v0, v1, v2, v3).Count()
					c.FrontierSkips += uint64(valid)
					c.InvalidLanes += uint64(vec.Lanes - valid)
				}
				if frontierWork {
					vi = index[dst+1] - 1
				}
				continue
			}
			n0 := v0 & vsparse.VertexMask
			n1 := v1 & vsparse.VertexMask
			n2 := v2 & vsparse.VertexMask
			n3 := v3 & vsparse.VertexMask
			// In-place window. A run is ascending by source and padding
			// repeats the last valid id, so n0 is the vector's smallest
			// source and n3 its largest: one sign test rules out every vector
			// that lies wholly before or after [first, dst).
			if inPlace && ((n0-uint64(dst))&(first-n3-1))>>63 != 0 {
				mask := signMask4(v0, v1, v2, v3)
				if win := mask & window4(n0, n1, n2, n3, first, uint64(dst)-first); win != 0 {
					if rec != nil {
						c.InvalidLanes += uint64(vec.Lanes - mask.Count())
					}
					// One step per live lane, in ascending lane order. A window
					// lane carries the fresher of the source's property and its
					// flushed aggregate, and is live on the strength of either.
					for m := mask; m != 0; m = m.Rest() {
						lane := m.First()
						n := words[base+lane] & vsparse.VertexMask
						val := props[n]
						live := !gated || (frontWords[n>>6]>>(n&63))&1 != 0
						if win.Bit(lane) {
							if fresh := fz.combine(val, accum[n]); fresh != val {
								val, live = fresh, true
							}
						}
						if !live {
							c.FrontierSkips++
							continue
						}
						var w float32
						if weighted {
							w = a.Weights[base+lane]
						}
						acc = fz.stepVal(acc, val, n, w)
						c.EdgesProcessed++
						c.TLSWrites++
						if rec != nil {
							countLocality(r, node, &c, n)
						}
					}
					continue
				}
			}
			// Full-vector fast path (the common case the format is padded
			// for: >90% of vectors on skewed graphs have all lanes valid):
			// no per-lane predicate tests, one fused gather+combine per
			// lane, as an AVX kernel would issue a single vgatherqpd.
			if fast && (v0&v1&v2&v3)>>63 != 0 {
				acc = fz.step4(props, acc, n0, n1, n2, n3, base, a.Weights)
				c.EdgesProcessed += vec.Lanes
				c.TLSWrites += vec.Lanes
				if rec != nil {
					countLocality(r, node, &c, n0, n1, n2, n3)
				}
				continue
			}
			// Predicated path: partially-filled vectors and frontier-gated
			// lanes. The lane counters exist for Record runs only; a
			// popcount per vector is not free on the software vector unit,
			// so a run that records nothing does not take it.
			mask := signMask4(v0, v1, v2, v3)
			if rec != nil {
				c.InvalidLanes += uint64(vec.Lanes - mask.Count())
			}
			if gated {
				// The open-coded vec.TestBits: an unpredicated gather of
				// four frontier words, ANDed with the valid mask. Dead
				// lanes repeat an in-range id, so no lane needs a branch.
				live := mask & vec.Mask((frontWords[n0>>6]>>(n0&63))&1|
					((frontWords[n1>>6]>>(n1&63))&1)<<1|
					((frontWords[n2>>6]>>(n2&63))&1)<<2|
					((frontWords[n3>>6]>>(n3&63))&1)<<3)
				if rec != nil {
					c.FrontierSkips += uint64(mask.Count() - live.Count())
				}
				mask = live
				if mask == 0 {
					continue
				}
				if saturates {
					// The first live lane is the run's minimum live source:
					// take it and leave the destination.
					n := words[base+mask.First()] & vsparse.VertexMask
					acc = fz.step(props, acc, n, 0)
					c.EdgesProcessed++
					c.TLSWrites++
					if rec != nil {
						countLocality(r, node, &c, n)
					}
					vi = index[dst+1] - 1
					continue
				}
				if mask == vec.MaskAll && fullVector {
					// Every lane survived predication: take the fused
					// full-vector path.
					acc = fz.step4(props, acc, n0, n1, n2, n3, base, a.Weights)
					c.EdgesProcessed += vec.Lanes
					c.TLSWrites += vec.Lanes
					if rec != nil {
						countLocality(r, node, &c, n0, n1, n2, n3)
					}
					continue
				}
			}
			// One step per surviving lane, in ascending lane order.
			for m := mask; m != 0; m = m.Rest() {
				lane := m.First()
				n := words[base+lane] & vsparse.VertexMask
				var w float32
				if weighted {
					w = a.Weights[base+lane]
				}
				acc = fz.step(props, acc, n, w)
				c.EdgesProcessed++
				c.TLSWrites++
				if rec != nil {
					countLocality(r, node, &c, n)
				}
			}
		}
		// FinishChunk (Listing 5): the trailing partial aggregate goes to
		// this chunk's private merge-buffer slot.
		r.mergeBuf.Save(chunkID, prev, acc)
		rec.Record(tid, c)
	}
}

// mergeAccum folds the merge buffer into the shared accumulators
// (Listing 6). It runs on one thread after the barrier — the paper found
// this "extremely fast for the real-world graphs we studied".
func mergeAccum(r *ExecContext, fz *fuse) {
	t0 := time.Now()
	identity := fz.p.Identity()
	accum := r.accum
	n := r.mergeBuf.Merge(func(dst uint32, v uint64) {
		if v != identity {
			accum[dst] = fz.combine(accum[dst], v)
		}
	})
	r.noteMerge(time.Since(t0))
	if r.edgeRec != nil {
		r.edgeRec.MergeTime += time.Since(t0)
		r.edgeRec.Record(0, perfmodel.Counters{MergeOps: uint64(n)})
	}
}

// edgePullTraditional parallelizes the same vectorized inner loop with the
// traditional interface: the loop body sees one iteration at a time and must
// write each edge's contribution straight to shared memory — with a CAS
// (useAtomics) or, for the "Traditional, Nonatomic" reference point of
// Figs 5 and 8, a racy plain read-modify-write.
//
// The Vector-Sparse array is destination-sorted, so only a chunk's first and
// last destination runs can span a chunk boundary; every interior run has
// this chunk as its sole writer, making its per-edge shared combine
// iteration-ordered even without the scheduler-aware interface. The two
// boundary runs are accumulated thread-locally and routed through
// merge-buffer slots 2*chunkID and 2*chunkID+1, folded in slot order after
// the barrier. The result is bit-identical at any worker count — including
// order-sensitive operators like floating-point addition — while the
// interior runs keep the per-edge shared write that defines the traditional
// interface's cost (the Fig 5 AtomicOps/SharedWrites measurement).
func edgePullTraditional(r *ExecContext, p apps.Program, useAtomics bool) {
	a := r.g.VSD
	total := a.NumVectors()
	if total == 0 {
		return
	}
	chunkSize := r.opt.chunkSizeFor(total, r.pool.Workers())
	identity := p.Identity()
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	weighted := p.Weighted() && a.Weights != nil
	frontWords := r.front.Words()
	props, accum := r.props, r.accum
	rec := r.edgeRec
	fz := fuseFor(p, weighted)

	words := a.Words
	top := func(vi int) uint32 {
		base := vi * vec.Lanes
		return decodeTop4(words[base], words[base+1], words[base+2], words[base+3])
	}
	// Two merge slots per chunk (prefix and suffix runs); dispatch itself
	// only guarantees one.
	r.mergeBuf.Grow(2 * (sched.NumChunks(total, chunkSize) + r.topo.Nodes))
	r.dispatch(r.pullPart, chunkSize, rec, func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		// [rg.Lo, prefixEnd) is the chunk's share of its first destination
		// run, [suffixStart, rg.Hi) its share of the last; when the whole
		// chunk is a single run the suffix takes all of it.
		lastDst := top(rg.Hi - 1)
		suffixStart := rg.Hi - 1
		for suffixStart > rg.Lo && top(suffixStart-1) == lastDst {
			suffixStart--
		}
		firstDst := top(rg.Lo)
		prefixEnd := rg.Lo
		for prefixEnd < suffixStart && top(prefixEnd) == firstDst {
			prefixEnd++
		}
		// gather accumulates one boundary run thread-locally.
		gather := func(lo, hi int, dst uint32) uint64 {
			acc := identity
			conv := tracksConv && r.conv.Contains(dst)
			for vi := lo; vi < hi; vi++ {
				base := vi * vec.Lanes
				v0, v1, v2, v3 := words[base], words[base+1], words[base+2], words[base+3]
				c.VectorsProcessed++
				mask := signMask4(v0, v1, v2, v3)
				valid := mask.Count()
				c.InvalidLanes += uint64(vec.Lanes - valid)
				if conv {
					c.FrontierSkips += uint64(valid)
					continue
				}
				neigh := vec.U64x4{v0 & vsparse.VertexMask, v1 & vsparse.VertexMask,
					v2 & vsparse.VertexMask, v3 & vsparse.VertexMask}
				if usesFrontier {
					live := vec.TestBits(frontWords, neigh, mask)
					c.FrontierSkips += uint64(valid - live.Count())
					mask = live
				}
				if mask == 0 {
					continue
				}
				for m := mask; m != 0; m = m.Rest() {
					lane := m.First()
					n := neigh[lane]
					var w float32
					if weighted {
						w = a.Weights[base+lane]
					}
					acc = fz.step(props, acc, n, w)
					c.EdgesProcessed++
					c.TLSWrites++
					if rec != nil {
						if r.propOwner.Owner(uint32(n)) == node {
							c.LocalAccesses++
						} else {
							c.RemoteAccesses++
						}
					}
				}
			}
			return acc
		}
		r.mergeBuf.Save(2*chunkID, firstDst, gather(rg.Lo, prefixEnd, firstDst))
		r.mergeBuf.Save(2*chunkID+1, lastDst, gather(suffixStart, rg.Hi, lastDst))
		for vi := prefixEnd; vi < suffixStart; vi++ {
			base := vi * vec.Lanes
			v0, v1, v2, v3 := words[base], words[base+1], words[base+2], words[base+3]
			dst := decodeTop4(v0, v1, v2, v3)
			c.VectorsProcessed++
			mask := signMask4(v0, v1, v2, v3)
			valid := mask.Count()
			c.InvalidLanes += uint64(vec.Lanes - valid)
			if tracksConv && r.conv.Contains(dst) {
				c.FrontierSkips += uint64(valid)
				continue
			}
			neigh := vec.U64x4{v0 & vsparse.VertexMask, v1 & vsparse.VertexMask,
				v2 & vsparse.VertexMask, v3 & vsparse.VertexMask}
			if usesFrontier {
				live := vec.TestBits(frontWords, neigh, mask)
				c.FrontierSkips += uint64(valid - live.Count())
				mask = live
			}
			if mask == 0 {
				continue
			}
			for m := mask; m != 0; m = m.Rest() {
				lane := m.First()
				n := neigh[lane]
				var w float32
				if weighted {
					w = a.Weights[base+lane]
				}
				msg := fz.stepMsg(props, n, w)
				c.EdgesProcessed++
				if useAtomics {
					casCombine(&fz, &accum[dst], msg, skipEqual, &c)
				} else {
					plainCombine(&fz, &accum[dst], msg, skipEqual, &c)
				}
				if rec != nil {
					if r.propOwner.Owner(uint32(n)) == node {
						c.LocalAccesses++
					} else {
						c.RemoteAccesses++
					}
				}
			}
		}
		rec.Record(tid, c)
	})
	mergeAccum(r, &fz)
}

// casCombine performs one synchronized shared update: load, combine, CAS,
// retrying on conflict. Retries are the direct measurement of the write
// conflicts that motivate §3.
func casCombine(fz *fuse, addr *uint64, msg uint64, skipEqual bool, c *perfmodel.Counters) {
	for {
		old := atomic.LoadUint64(addr)
		merged := fz.combine(old, msg)
		if skipEqual && merged == old {
			c.SkippedWrites++
			return
		}
		c.AtomicOps++
		if atomic.CompareAndSwapUint64(addr, old, merged) {
			c.SharedWrites++
			return
		}
		c.CASRetries++
	}
}

// plainCombine performs the same update without synchronization. Under
// multiple workers this is intentionally racy (the paper runs it only to
// isolate conflict cost from synchronization cost; its output may be
// incorrect).
func plainCombine(fz *fuse, addr *uint64, msg uint64, skipEqual bool, c *perfmodel.Counters) {
	old := *addr
	merged := fz.combine(old, msg)
	if skipEqual && merged == old {
		c.SkippedWrites++
		return
	}
	*addr = merged
	c.SharedWrites++
}

// edgePullOuterOnly parallelizes only the outer (destination) loop; each
// destination's in-edges run serially on one thread (the PushP+PullS
// configuration of Fig 1). No synchronization is needed, but skewed
// graphs suffer the load imbalance that motivates inner-loop
// parallelization.
func edgePullOuterOnly(r *ExecContext, p apps.Program) {
	m := r.g.CSC
	identity := p.Identity()
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	weighted := p.Weighted() && m.Weights != nil
	props, accum := r.props, r.accum
	rec := r.edgeRec
	fz := fuseFor(p, weighted)
	chunkSize := sched.ChunkSize(r.g.N, sched.DefaultChunks(r.pool.Workers()))
	vertPart := r.vertexPartition()

	r.dispatch(vertPart, chunkSize, rec, func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		for v := rg.Lo; v < rg.Hi; v++ {
			dst := uint32(v)
			if tracksConv && r.conv.Contains(dst) {
				continue
			}
			acc := identity
			neigh := m.Edges(dst)
			var ws []float32
			if weighted {
				ws = m.EdgeWeights(dst)
			}
			for i, s := range neigh {
				if usesFrontier && !r.front.Contains(s) {
					c.FrontierSkips++
					continue
				}
				var w float32
				if ws != nil {
					w = ws[i]
				}
				acc = fz.step(props, acc, uint64(s), w)
				c.EdgesProcessed++
				c.TLSWrites++
			}
			if acc != identity {
				accum[dst] = fz.combine(accum[dst], acc)
				c.SharedWrites++
			}
		}
		rec.Record(tid, c)
	})
}

// edgePullSAScalar is the scheduler-aware kernel on Compressed-Sparse,
// one edge at a time — the non-vectorized baseline of Fig 10a's Edge-Pull
// bar. It chunks the edge array directly; per-edge it pays the transition
// check, frontier probe, and per-element access that the Vector-Sparse
// kernel amortizes over four lanes.
func edgePullSAScalar(r *ExecContext, p apps.Program) {
	m := r.g.CSC
	total := m.NumEdges()
	if total == 0 {
		return
	}
	// Granularity is configured in vectors; one vector covers vec.Lanes
	// edges, keeping chunk work comparable across kernels.
	chunkSize := r.opt.chunkSizeFor((total+vec.Lanes-1)/vec.Lanes, r.pool.Workers()) * vec.Lanes
	identity := p.Identity()
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	weighted := p.Weighted() && m.Weights != nil
	props, accum := r.props, r.accum
	rec := r.edgeRec
	fz := fuseFor(p, weighted)
	edgePart := r.edgePartition()

	r.dispatch(edgePart, chunkSize, rec, func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		dst := dstAt(m, rg.Lo)
		acc := identity
		for i := rg.Lo; i < rg.Hi; i++ {
			if uint64(i) == m.Index[dst+1] {
				if acc != identity {
					accum[dst] = fz.combine(accum[dst], acc)
					c.SharedWrites++
				}
				for uint64(i) == m.Index[dst+1] {
					dst++
				}
				acc = identity
			}
			if tracksConv && r.conv.Contains(dst) {
				c.FrontierSkips++
				continue
			}
			s := m.Neigh[i]
			if usesFrontier && !r.front.Contains(s) {
				c.FrontierSkips++
				continue
			}
			var w float32
			if weighted {
				w = m.Weights[i]
			}
			acc = fz.step(props, acc, uint64(s), w)
			c.EdgesProcessed++
			c.TLSWrites++
			if rec != nil {
				if r.propOwner.Owner(s) == node {
					c.LocalAccesses++
				} else {
					c.RemoteAccesses++
				}
			}
		}
		r.mergeBuf.Save(chunkID, dst, acc)
		rec.Record(tid, c)
	})
	mergeAccum(r, &fz)
}

// dstAt returns the destination whose run in the CSC edge array holds
// position i, by one search of the index.
func dstAt(m *csr.Matrix, i int) uint32 {
	return uint32(sort.Search(m.N, func(v int) bool { return m.Index[v+1] > uint64(i) }))
}

// edgePullTraditionalScalar is the traditional interface on
// Compressed-Sparse: a parallel loop over edges whose body writes each
// contribution to shared memory (Listing 2 with the inner for changed to
// parallel_for), with or without atomics. Like edgePullTraditional it peels
// the chunk's first and last destination runs — the only ones that can span
// a chunk boundary in the destination-sorted edge array — into private
// merge-buffer slots folded in fixed order, so results are bit-identical at
// any worker count while interior runs keep the per-edge shared combine.
func edgePullTraditionalScalar(r *ExecContext, p apps.Program, useAtomics bool) {
	m := r.g.CSC
	total := m.NumEdges()
	if total == 0 {
		return
	}
	chunkSize := r.opt.chunkSizeFor((total+vec.Lanes-1)/vec.Lanes, r.pool.Workers()) * vec.Lanes
	identity := p.Identity()
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	weighted := p.Weighted() && m.Weights != nil
	props, accum := r.props, r.accum
	rec := r.edgeRec
	fz := fuseFor(p, weighted)
	edgePart := r.edgePartition()

	r.mergeBuf.Grow(2 * (sched.NumChunks(total, chunkSize) + r.topo.Nodes))
	r.dispatch(edgePart, chunkSize, rec, func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		lastDst := dstAt(m, rg.Hi-1)
		suffixStart := max(int(m.Index[lastDst]), rg.Lo)
		firstDst := dstAt(m, rg.Lo)
		prefixEnd := min(int(m.Index[firstDst+1]), suffixStart)
		gather := func(lo, hi int, dst uint32) uint64 {
			acc := identity
			if tracksConv && r.conv.Contains(dst) {
				c.FrontierSkips += uint64(hi - lo)
				return acc
			}
			for i := lo; i < hi; i++ {
				s := m.Neigh[i]
				if usesFrontier && !r.front.Contains(s) {
					c.FrontierSkips++
					continue
				}
				var w float32
				if weighted {
					w = m.Weights[i]
				}
				acc = fz.step(props, acc, uint64(s), w)
				c.EdgesProcessed++
				c.TLSWrites++
			}
			return acc
		}
		r.mergeBuf.Save(2*chunkID, firstDst, gather(rg.Lo, prefixEnd, firstDst))
		r.mergeBuf.Save(2*chunkID+1, lastDst, gather(suffixStart, rg.Hi, lastDst))
		dst := firstDst
		for i := prefixEnd; i < suffixStart; i++ {
			for uint64(i) == m.Index[dst+1] {
				dst++
			}
			if tracksConv && r.conv.Contains(dst) {
				c.FrontierSkips++
				continue
			}
			s := m.Neigh[i]
			if usesFrontier && !r.front.Contains(s) {
				c.FrontierSkips++
				continue
			}
			var w float32
			if weighted {
				w = m.Weights[i]
			}
			msg := fz.stepMsg(props, uint64(s), w)
			c.EdgesProcessed++
			if useAtomics {
				casCombine(&fz, &accum[dst], msg, skipEqual, &c)
			} else {
				plainCombine(&fz, &accum[dst], msg, skipEqual, &c)
			}
		}
		rec.Record(tid, c)
	})
	mergeAccum(r, &fz)
}

// decodeTop4 reassembles the embedded 48-bit top-level vertex id from four
// raw lane words (the open-coded form of vsparse.DecodeTop, kept branch-free
// on the kernels' hot path).
func decodeTop4(v0, v1, v2, v3 uint64) uint32 {
	const pieceShift = 48
	return uint32(((v0>>pieceShift)&0x7)<<45 |
		((v1>>pieceShift)&0x7FFF)<<30 |
		((v2>>pieceShift)&0x7FFF)<<15 |
		(v3>>pieceShift)&0x7FFF)
}

// window4 returns the lanes whose source id lies in [lo, lo+span), branch-
// free: with d = n − lo (wrapping), a lane is inside when d − span borrows and
// d itself did not. Ids are below 2^48, so neither test can be fooled by a
// wrapped difference.
func window4(n0, n1, n2, n3, lo, span uint64) vec.Mask {
	d0, d1, d2, d3 := n0-lo, n1-lo, n2-lo, n3-lo
	return vec.Mask(((d0-span)&^d0)>>63 | (((d1-span)&^d1)>>63)<<1 |
		(((d2-span)&^d2)>>63)<<2 | (((d3-span)&^d3)>>63)<<3)
}

// signMask4 extracts the per-lane valid mask from four raw lane words (the
// open-coded vec.SignMask).
func signMask4(v0, v1, v2, v3 uint64) vec.Mask {
	return vec.Mask(v0>>63 | (v1>>63)<<1 | (v2>>63)<<2 | (v3>>63)<<3)
}

// countLocality classifies four gathered source reads against the worker's
// simulated NUMA node.
func countLocality(r *ExecContext, node int, c *perfmodel.Counters, ns ...uint64) {
	for _, n := range ns {
		if r.propOwner.Owner(uint32(n)) == node {
			c.LocalAccesses++
		} else {
			c.RemoteAccesses++
		}
	}
}

// vertexPartition and edgePartition give the NUMA partitions of the vertex
// and CSC-edge index spaces (cheap to recompute per phase).
func (r *ExecContext) vertexPartition() numa.Partition {
	return numa.PartitionEven(r.g.N, r.topo.Nodes)
}

func (r *ExecContext) edgePartition() numa.Partition {
	return numa.PartitionEven(r.g.CSC.NumEdges(), r.topo.Nodes)
}
