package core

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/frontier"
	"repro/internal/numa"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// RunEdgePull executes one Edge-Pull phase with the configured variant and
// kernel: the scheduler-aware Vector-Sparse bodies (edgePullSA), the
// traditional interface's Vector-Sparse walk, or the Compressed-Sparse run
// walk every variant shares under Scalar, and outer-only always. Aggregates
// land in the Runner's accumulator array; RunVertex consumes them. It
// returns the chunks the phase cut and its merge fold's wall.
func RunEdgePull(r *ExecContext, p apps.Program) edgeCost {
	switch {
	case r.opt.Scalar || r.opt.Variant == PullOuterOnly:
		return edgePullCS(r, p)
	case r.opt.Variant == PullSchedulerAware:
		return edgePullSA(r, p)
	default:
		return edgePullTraditional(r, p, r.opt.Variant == PullTraditional)
	}
}

// edgePullSA is the flagship kernel: the scheduler-aware (§3), vectorized
// (§4) Edge-Pull inner loop — Listing 7 parallelized with the Listing 3-6
// hooks. It performs no synchronization: writes go to the chunk-local
// accumulator, to shared memory only on outer-loop transitions (at most one
// chunk contains each vertex's last vector), or to the chunk's private merge
// buffer slot. A Record run calls the same body a plain run calls and charges
// the counters in a separate pass over the chunk once the body has returned
// (countChunk), inside runChunk's busy window.
func edgePullSA(r *ExecContext, p apps.Program) edgeCost {
	if r.g.VSD.NumVectors() == 0 {
		return edgeCost{}
	}
	fz := fuseFor(p, p.Weighted() && r.g.VSD.Weights != nil)
	body := pullSABody(r, &fz)
	if rec := r.edgeRec; rec != nil {
		run, count := body, countChunk(r, &fz)
		body = func(rg sched.Range, chunkID, tid, node int) {
			run(rg, chunkID, tid, node)
			rec.Record(tid, count(rg, node))
		}
	}
	chunks := r.dispatch(r.pullPart, r.pullChunkFor(p), body)
	return edgeCost{edgeChunks: chunks, merged: true, merge: mergeAccum(r, &fz)}
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
// lanes are walked bit by bit (Mask.First/Rest), the transition flush
// combines through the fused kind, and an iteration whose frontier is full
// drops the test altogether. The last is frontier-work reduction like the
// early exit and sits under the same AblateFrontierWork; none of it changes
// which lanes are gathered or in what order. The walk keeps no counter:
// countChunk charges a Record run's chunks.
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
// vec.MinPropChunk (pullSpanBody); this one serves sssp and the full-vector
// ablation.
//
// A frontier-blind program never comes this far: it has no per-vector test to
// make, and pulls by run span instead (pullSpanBody). Neither does a
// FusedMinProp program (cc), synchronous or in place: it walks the chunk in
// one vec.MinPropChunk call whose gathers make the frontier test and, in
// place, the window read. Nor does a FusedMinSrc program (bfs): one
// vec.MinSrcChunk call makes both early exits per run. The in-place rounds
// this body still runs are sssp's and the full-vector ablation's; the
// saturating arm serves the full-vector ablation only, and the paper
// configuration (AblateFrontierWork) walks bfs's every vector here with no
// early exit.
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
	frontierWork := !r.opt.AblateFrontierWork
	saturates := frontierWork && fz.kind == apps.FusedMinSrc
	fullVector := !r.opt.AblateFullVector
	// A full frontier passes every membership test, so the iteration runs
	// unpredicated and gathers exactly the lanes the tests would have let
	// through. A saturating program keeps its tests: they are how it finds
	// the lane to stop at.
	gated := p.UsesFrontier() && !(frontierWork && !saturates && r.front.Full())
	inPlace := r.inPlace(p)
	words, index := a.Words, a.Index
	return func(rg sched.Range, chunkID, tid, node int) {
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
				}
				prev, acc = dst, identity
			}
			if tracksConv && r.conv.Contains(dst) {
				if frontierWork {
					vi = index[dst+1] - 1
				}
				continue
			}
			n0 := v0 & vsparse.VertexMask
			n1 := v1 & vsparse.VertexMask
			n2 := v2 & vsparse.VertexMask
			n3 := v3 & vsparse.VertexMask
			mask := signMask4(v0, v1, v2, v3)
			// In-place window. A run is ascending by source and padding
			// repeats the last valid id, so n0 is the vector's smallest
			// source and n3 its largest: one sign test rules out every vector
			// that lies wholly before or after [first, dst).
			if inPlace && ((n0-uint64(dst))&(first-n3-1))>>63 != 0 {
				if win := mask & window4(n0, n1, n2, n3, first, uint64(dst)-first); win != 0 {
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
							continue
						}
						var w float32
						if weighted {
							w = a.Weights[base+lane]
						}
						acc = fz.stepVal(acc, val, n, w)
					}
					continue
				}
			}
			if gated {
				// The open-coded vec.TestBits: an unpredicated gather of
				// four frontier words, ANDed with the valid mask. Dead
				// lanes repeat an in-range id, so no lane needs a branch.
				mask &= vec.Mask((frontWords[n0>>6]>>(n0&63))&1 |
					((frontWords[n1>>6]>>(n1&63))&1)<<1 |
					((frontWords[n2>>6]>>(n2&63))&1)<<2 |
					((frontWords[n3>>6]>>(n3&63))&1)<<3)
				if mask == 0 {
					continue
				}
				if saturates {
					// The first live lane is the run's minimum live source:
					// take it and leave the destination.
					acc = fz.step(props, acc, words[base+mask.First()]&vsparse.VertexMask, 0)
					vi = index[dst+1] - 1
					continue
				}
			}
			// Full-vector fast path (the common case the format is padded
			// for: >90% of vectors on skewed graphs have all lanes valid,
			// and every lane may survive predication): no per-lane tests,
			// one fused gather+combine per lane, as an AVX kernel would
			// issue a single vgatherqpd.
			if mask == vec.MaskAll && fullVector {
				acc = fz.step4(props, acc, n0, n1, n2, n3, base, a.Weights)
				continue
			}
			// One step per surviving lane, in ascending lane order.
			for m := mask; m != 0; m = m.Rest() {
				lane := m.First()
				var w float32
				if weighted {
					w = a.Weights[base+lane]
				}
				acc = fz.step(props, acc, words[base+lane]&vsparse.VertexMask, w)
			}
		}
		// FinishChunk (Listing 5): the trailing partial aggregate goes to
		// this chunk's private merge-buffer slot.
		r.mergeBuf.Save(chunkID, prev, acc)
	}
}

// countChunk builds the Record pass of the scheduler-aware Vector-Sparse
// pull. edgePullSA runs it on each chunk after the chunk's body, whichever
// body that was, and it charges what pullSABody's vector walk would do there.
// It reads the chunk's words and Index, the frontier and converged words,
// props, and the accum words the body left, and writes only the counters:
//
//   - every vector the walk visits is processed, its invalid lanes invalid
//     and each valid lane an edge or a frontier skip;
//   - a converged destination's run is left after one vector (charged every
//     vector under AblateFrontierWork), its valid lanes skipped;
//   - a lane is live when its source is in the frontier (every valid lane in
//     a round whose frontier is full), or, in place, when the source lies in
//     the window [first, dst) and Combine(props[n], accum[n]) != props[n];
//   - a saturating program (bfs) takes its run's first live lane;
//   - each lane taken is an edge, a thread-local write and a Local or Remote
//     read;
//   - an interior run is a shared write when it had a live lane and
//     accum[dst] is not the identity.
//
// Transition stores are single-writer, so the accum words the chunk's
// interior runs leave are exactly what its window reads saw. The word alone
// does not tell which runs the walk stored: the ungated in-place
// vec.MinPropChunk also stores runs whose gated lanes were all dead, which
// the live-lane test leaves out.
func countChunk(r *ExecContext, fz *fuse) func(rg sched.Range, node int) perfmodel.Counters {
	p := fz.p
	a := r.g.VSD
	words, index := a.Words, a.Index
	identity := p.Identity()
	tracksConv := p.TracksConverged()
	frontWords := r.front.Words()
	props, accum := r.props, r.accum
	frontierWork := !r.opt.AblateFrontierWork
	saturates := frontierWork && fz.kind == apps.FusedMinSrc
	gated := p.UsesFrontier() && !(frontierWork && !saturates && r.front.Full())
	inPlace := r.inPlace(p)
	return func(rg sched.Range, node int) perfmodel.Counters {
		var c perfmodel.Counters
		first := firstTop(a, rg.Lo)
		prev, taken := first, false
		for vi := rg.Lo; vi < rg.Hi; vi++ {
			base := vi * vec.Lanes
			v0, v1, v2, v3 := words[base], words[base+1], words[base+2], words[base+3]
			dst := decodeTop4(v0, v1, v2, v3)
			if dst != prev {
				if taken && accum[prev] != identity {
					c.SharedWrites++
				}
				prev, taken = dst, false
			}
			c.VectorsProcessed++
			mask := signMask4(v0, v1, v2, v3)
			c.InvalidLanes += uint64(vec.Lanes - mask.Count())
			if tracksConv && r.conv.Contains(dst) {
				c.FrontierSkips += uint64(mask.Count())
				if frontierWork {
					vi = index[dst+1] - 1
				}
				continue
			}
			n := vec.U64x4{v0 & vsparse.VertexMask, v1 & vsparse.VertexMask, v2 & vsparse.VertexMask, v3 & vsparse.VertexMask}
			live := mask
			if gated {
				live = vec.TestBits(frontWords, n, mask)
			}
			if inPlace {
				win := mask &^ live & window4(n[0], n[1], n[2], n[3], uint64(first), uint64(dst-first))
				for m := win; m != 0; m = m.Rest() {
					if s := n[m.First()]; fz.combine(props[s], accum[s]) != props[s] {
						live |= 1 << m.First()
					}
				}
			}
			c.FrontierSkips += uint64(mask.Count() - live.Count())
			if live == 0 {
				continue
			}
			taken = true
			if saturates {
				live &= -live
				vi = index[dst+1] - 1
			}
			c.EdgesProcessed += uint64(live.Count())
			c.TLSWrites += uint64(live.Count())
			for m := live; m != 0; m = m.Rest() {
				countLocality(r, node, &c, n[m.First()])
			}
		}
		return c
	}
}

// mergeAccum folds the merge buffer into the shared accumulators
// (Listing 6). It runs on one thread after the barrier — the paper found
// this "extremely fast for the real-world graphs we studied". It returns
// the fold's wall.
func mergeAccum(r *ExecContext, fz *fuse) time.Duration {
	t0 := time.Now()
	identity := fz.p.Identity()
	accum := r.accum
	n := r.mergeBuf.Merge(func(dst uint32, v uint64) {
		if v != identity {
			accum[dst] = fz.combine(accum[dst], v)
		}
	})
	r.edgeRec.Record(0, perfmodel.Counters{MergeOps: uint64(n)})
	return time.Since(t0)
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
// iteration-ordered even without the scheduler-aware interface. One walk
// takes the whole chunk: a vector of its first or last destination run steps
// into a thread-local aggregate, which goes to merge-buffer slot 2*chunkID
// or 2*chunkID+1, folded in slot order after the barrier; any other vector
// writes each lane to shared memory. The result is bit-identical at any
// worker count — including order-sensitive operators like floating-point
// addition — while the interior runs keep the per-edge shared write that
// defines the traditional interface's cost (the Fig 5 AtomicOps/SharedWrites
// measurement).
func edgePullTraditional(r *ExecContext, p apps.Program, useAtomics bool) edgeCost {
	a := r.g.VSD
	total := a.NumVectors()
	if total == 0 {
		return edgeCost{}
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
	// Two merge slots per chunk (prefix and suffix runs); dispatch itself
	// only guarantees one.
	r.mergeBuf.Grow(2 * (sched.NumChunks(total, chunkSize) + r.topo.Nodes))
	chunks := r.dispatch(r.pullPart, chunkSize, func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		// [rg.Lo, prefixEnd) is the chunk's share of its first destination
		// run, [suffixStart, rg.Hi) its share of the last; when the whole
		// chunk is a single run the suffix takes all of it. acc is the
		// prefix's aggregate, then the suffix's.
		firstDst, lastDst := firstTop(a, rg.Lo), firstTop(a, rg.Hi-1)
		suffixStart := max(a.Index[lastDst], rg.Lo)
		prefixEnd := min(a.Index[firstDst+1], suffixStart)
		acc := identity
		own := r.owned[node]
		for vi := rg.Lo; vi < rg.Hi; vi++ {
			if vi == prefixEnd {
				r.mergeBuf.Save(2*chunkID, firstDst, acc)
				acc = identity
			}
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
			boundary := vi < prefixEnd || vi >= suffixStart
			for m := mask; m != 0; m = m.Rest() {
				lane := m.First()
				n := neigh[lane]
				var w float32
				if weighted {
					w = a.Weights[base+lane]
				}
				switch {
				case boundary:
					acc = fz.step(props, acc, n, w)
				case useAtomics:
					casCombine(&fz, &accum[dst], fz.stepMsg(props, n, w), skipEqual, &c)
				default:
					plainCombine(&fz, &accum[dst], fz.stepMsg(props, n, w), skipEqual, &c)
				}
			}
			// The vector's counters, charged in one place; a Record run walks
			// the live lanes again to classify them by node.
			edges := uint64(mask.Count())
			c.EdgesProcessed += edges
			if boundary {
				c.TLSWrites += edges
			}
			if rec != nil {
				local := uint64(0)
				for m := mask; m != 0; m = m.Rest() {
					if own.has(uint32(neigh[m.First()])) {
						local++
					}
				}
				c.LocalAccesses += local
				c.RemoteAccesses += edges - local
			}
		}
		r.mergeBuf.Save(2*chunkID+1, lastDst, acc)
		rec.Record(tid, c)
	})
	return edgeCost{edgeChunks: chunks, merged: true, merge: mergeAccum(r, &fz)}
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

// edgePullCS is the reference Edge-Pull on Compressed-Sparse, one edge at a
// time (Listing 2): the non-vectorized baseline of Fig 10a's Edge-Pull bar
// (Scalar) and the outer-loop-only configuration. A chunk is walked
// destination run by destination run, each run [s, e) clipped to the chunk,
// and the interface is the write policy around that one loop, fixed by
// Variant for the whole phase and applied once per run:
//
//   - scheduler-aware (§3): a run accumulates thread-locally and is stored
//     at its transition — only this chunk holds its end — except the
//     trailing run, which goes to merge slot chunkID (FinishChunk).
//   - outer-only (the PushP+PullS configuration): the chunk is a range of
//     destinations turned into its whole-run edge range, so every run is
//     whole and stored at its end, with no merge. Skewed graphs keep the
//     load imbalance that motivates inner-loop parallelization.
//   - traditional, with (PullTraditional) or without atomics: the chunk's
//     first and last runs, the only ones that can span a chunk boundary,
//     accumulate into merge slots 2·chunkID and 2·chunkID+1, folded in slot
//     order after the barrier, so results are bit-identical at any worker
//     count; every interior run keeps the per-edge shared combine whose cost
//     Figs 5–8 measure.
func edgePullCS(r *ExecContext, p apps.Program) edgeCost {
	m := r.g.CSC
	total := m.NumEdges()
	if total == 0 {
		return edgeCost{}
	}
	outerOnly := r.opt.Variant == PullOuterOnly
	traditional := r.opt.Variant == PullTraditional || r.opt.Variant == PullTraditionalNonatomic
	useAtomics := r.opt.Variant == PullTraditional
	visitConv := r.opt.AblateFrontierWork && !outerOnly
	identity := p.Identity()
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	weighted := p.Weighted() && m.Weights != nil
	props, accum := r.props, r.accum
	rec := r.edgeRec
	fz := fuseFor(p, weighted)
	var front *frontier.Dense // nil: every source is live
	if p.UsesFrontier() {
		front = r.front
	}
	// Granularity is configured in vectors; one vector covers vec.Lanes
	// edges, keeping chunk work comparable across kernels.
	part := numa.PartitionEven(total, r.topo.Nodes)
	chunkSize := r.opt.chunkSizeFor((total+vec.Lanes-1)/vec.Lanes, r.pool.Workers()) * vec.Lanes
	if outerOnly {
		part, chunkSize = r.vertexPartition(), sched.ChunkSize(r.g.N, sched.DefaultChunks(r.pool.Workers()))
	}
	if traditional {
		r.mergeBuf.Grow(2 * (sched.NumChunks(total, chunkSize) + r.topo.Nodes))
	}
	chunks := r.dispatch(part, chunkSize, func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		lo, hi := rg.Lo, rg.Hi
		if outerOnly {
			lo, hi = int(m.Index[lo]), int(m.Index[hi])
		}
		// The destination whose run holds position lo, by one search.
		first := uint32(sort.Search(m.N, func(v int) bool { return m.Index[v+1] > uint64(lo) }))
		if traditional {
			// Slot 2·chunkID stays identity unless the chunk's first run
			// ends inside it.
			r.mergeBuf.Save(2*chunkID, first, identity)
		}
		// The chunk's counters, kept in registers and charged once below:
		// every edge of [lo, hi) is processed or skipped.
		edges, tls, local := 0, 0, 0
		own := r.owned[node]
		for dst := first; int(m.Index[dst]) < hi; dst++ {
			s, e := max(int(m.Index[dst]), lo), min(int(m.Index[dst+1]), hi)
			shared := traditional && s > lo && e < hi
			acc, live := identity, 0
			switch {
			case tracksConv && r.conv.Contains(dst):
				// A converged destination takes no message: its run is
				// skipped unread, as pullSABody skips one, except in the
				// paper configuration. There the vector walk tests each
				// vector of the run, so this walk, its scalar baseline in
				// Fig 10b, tests each edge.
				for i := s; visitConv && i < e && r.conv.Contains(dst); i++ {
				}
			case shared:
				for i, src := range m.Neigh[s:e] {
					if front != nil && !front.Contains(src) {
						continue
					}
					live++
					var w float32
					if weighted {
						w = m.Weights[s+i]
					}
					if useAtomics {
						casCombine(&fz, &accum[dst], fz.stepMsg(props, uint64(src), w), skipEqual, &c)
					} else {
						plainCombine(&fz, &accum[dst], fz.stepMsg(props, uint64(src), w), skipEqual, &c)
					}
				}
			default:
				var ws []float32
				if weighted {
					ws = m.Weights[s:e]
				}
				acc, live = foldRun(&fz, props, front, m.Neigh[s:e], ws, acc)
				tls += live
			}
			edges += live
			if rec != nil && live > 0 {
				// A Record run reads the live sources again to classify them
				// by node.
				for _, src := range m.Neigh[s:e] {
					if (front == nil || front.Contains(src)) && own.has(src) {
						local++
					}
				}
			}
			switch {
			case shared: // written edge by edge
			case traditional:
				slot := 2 * chunkID
				if e == hi {
					slot++
				}
				r.mergeBuf.Save(slot, dst, acc)
			case outerOnly || e < hi:
				if acc != identity {
					accum[dst] = fz.combine(accum[dst], acc)
					c.SharedWrites++
				}
			default:
				r.mergeBuf.Save(chunkID, dst, acc)
			}
		}
		c.EdgesProcessed += uint64(edges)
		c.FrontierSkips += uint64(hi - lo - edges)
		c.TLSWrites += uint64(tls)
		if rec != nil {
			c.LocalAccesses += uint64(local)
			c.RemoteAccesses += uint64(edges - local)
		}
		rec.Record(tid, c)
	})
	if outerOnly {
		return edgeCost{edgeChunks: chunks}
	}
	return edgeCost{edgeChunks: chunks, merged: true, merge: mergeAccum(r, &fz)}
}

// foldRun steps a run's live sources into acc thread-locally and returns the
// aggregate and the number of live sources. It is edgePullCS's edge loop for
// every run but a traditional interior one; a call of its own keeps the run
// loop's state out of its registers (inline, the spills cost the walk
// 10–20 % on the skewed analogs; EXPERIMENTS.md).
func foldRun(fz *fuse, props []uint64, front *frontier.Dense, srcs []uint32, ws []float32, acc uint64) (uint64, int) {
	live := 0
	for i, src := range srcs {
		if front != nil && !front.Contains(src) {
			continue
		}
		live++
		var w float32
		if ws != nil {
			w = ws[i]
		}
		acc = fz.step(props, acc, uint64(src), w)
	}
	return acc, live
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

// ownedRange is the vertices [lo, hi) whose properties one simulated NUMA
// node owns (Runner.owned).
type ownedRange struct{ lo, hi uint32 }

// has reports whether the node owns vertex v's property: whether a read of
// it is local.
func (o ownedRange) has(v uint32) bool { return v-o.lo < o.hi-o.lo }

// ownedRanges splits n vertices by the node owning their properties
// (numa.PropertyMap.Owner, which is monotone).
func ownedRanges(n int, t numa.Topology) []ownedRange {
	owner := numa.NewPropertyMap(n, t)
	out := make([]ownedRange, t.Nodes)
	for node := range out {
		out[node] = ownedRange{
			lo: uint32(sort.Search(n, func(v int) bool { return owner.Owner(uint32(v)) >= node })),
			hi: uint32(sort.Search(n, func(v int) bool { return owner.Owner(uint32(v)) > node })),
		}
	}
	return out
}

// countLocality classifies a gathered source read against the worker's
// simulated NUMA node.
func countLocality(r *ExecContext, node int, c *perfmodel.Counters, n uint64) {
	if r.owned[node].has(uint32(n)) {
		c.LocalAccesses++
	} else {
		c.RemoteAccesses++
	}
}

// vertexPartition gives the NUMA partition of the vertex index space (cheap
// to recompute per phase).
func (r *ExecContext) vertexPartition() numa.Partition {
	return numa.PartitionEven(r.g.N, r.topo.Nodes)
}
