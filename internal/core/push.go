package core

import (
	"time"

	"repro/internal/apps"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// RunEdgePush executes one Edge-Push phase (Listing 1): the outer loop runs
// over source vertices — letting the engine skip inactive sources cheaply,
// push's advantage — and every destination update is a synchronized shared
// write. Push uses the traditional parallelization in Grazelle (§5: "its
// push engine uses the traditional approach"); scheduler awareness cannot
// help because writes scatter across destinations.
func RunEdgePush(r *ExecContext, p apps.Program) {
	t0 := time.Now()
	if r.opt.Scalar {
		edgePushScalar(r, p)
	} else {
		edgePushVectorized(r, p)
	}
	if r.edgeRec != nil {
		r.edgeRec.Wall += time.Since(t0)
	}
}

// edgePushVectorized iterates VSS vectors: one frontier check and one
// property load per source vector, messages computed per lane, but the
// scatter is a per-lane CAS — there is no atomic-update-scatter instruction
// (§6.2's explanation for push's flat vectorization response).
//
// For order-sensitive combine operators (fuse.ordered) the per-lane CAS
// would make the floating-point sum depend on thread interleaving, so those
// programs instead append (destination, message) pairs to the chunk's
// private scatter-buffer slot, folded in chunk-id order after the barrier —
// deterministic at any worker count. Min-style operators keep the CAS:
// their result is interleaving-independent.
func edgePushVectorized(r *ExecContext, p apps.Program) {
	if r.g.VSS.NumVectors() == 0 {
		return
	}
	fz := fuseFor(p, p.Weighted() && r.g.VSS.Weights != nil)
	// Chunk over source vertices: the per-source frontier bit skips whole
	// adjacency lists (push's advantage, §2), and the vertex index — which
	// §4 keeps around precisely for frontier checks — locates each active
	// source's vectors.
	vertChunk := sched.ChunkSize(r.g.N, sched.DefaultChunks(r.pool.Workers()))
	if fz.ordered {
		r.scatterBuf.Grow(sched.NumChunks(r.g.N, vertChunk) + r.topo.Nodes)
	}
	r.dispatch(r.vertexPartition(), vertChunk, r.edgeRec, pushVectorizedBody(r, &fz))
	if fz.ordered {
		mergeScatter(r, &fz)
	}
}

// pushVectorizedBody builds the vectorized push chunk body with the loop
// invariants hoisted into the closure. The scatter is a CAS (or an append to
// the chunk's private scatter-buffer slot, keyed by chunk id), so its chunks
// are safe to run concurrently.
func pushVectorizedBody(r *ExecContext, fz *fuse) func(rg sched.Range, chunkID, tid, node int) {
	p := fz.p
	a := r.g.VSS
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	weighted := fz.weighted
	props, accum := r.props, r.accum
	rec := r.edgeRec

	words := a.Words
	index := a.Index
	return func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		var out []sched.Contribution
		if fz.ordered {
			out = r.scatterBuf.Take(chunkID)
		}
		for sv := rg.Lo; sv < rg.Hi; sv++ {
			src := uint32(sv)
			if usesFrontier && !r.front.Contains(src) {
				continue
			}
			for vi := index[sv]; vi < index[sv+1]; vi++ {
				base := vi * vec.Lanes
				v0, v1, v2, v3 := words[base], words[base+1], words[base+2], words[base+3]
				c.VectorsProcessed++
				mask := signMask4(v0, v1, v2, v3)
				valid := mask.Count()
				c.InvalidLanes += uint64(vec.Lanes - valid)
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
					if fz.ordered {
						out = append(out, sched.Contribution{Dst: dst, Val: msg})
						c.TLSWrites++
					} else {
						casCombine(fz, &accum[dst], msg, skipEqual, &c)
					}
					if rec != nil {
						if r.propOwner.Owner(dst) == node {
							c.LocalAccesses++
						} else {
							c.RemoteAccesses++
						}
					}
				}
			}
		}
		if fz.ordered {
			r.scatterBuf.Save(chunkID, out)
		}
		rec.Record(tid, c)
	}
}

// mergeScatter folds the scatter buffer into the shared accumulators in
// chunk-id order — the push-side analog of mergeAccum, running on one
// thread after the barrier.
func mergeScatter(r *ExecContext, fz *fuse) {
	t0 := time.Now()
	accum := r.accum
	n := r.scatterBuf.Merge(func(dst uint32, v uint64) {
		accum[dst] = fz.combine(accum[dst], v)
	})
	r.noteMerge(time.Since(t0))
	if r.edgeRec != nil {
		r.edgeRec.MergeTime += time.Since(t0)
		r.edgeRec.Record(0, perfmodel.Counters{MergeOps: uint64(n), SharedWrites: uint64(n)})
	}
}

// edgePushScalar is the Compressed-Sparse push kernel: chunked over source
// vertices, inner loop serial, one CAS per live edge — or, for
// order-sensitive programs, one scatter-buffer append (see
// edgePushVectorized).
func edgePushScalar(r *ExecContext, p apps.Program) {
	m := r.g.CSR
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	weighted := p.Weighted() && m.Weights != nil
	props, accum := r.props, r.accum
	rec := r.edgeRec
	fz := fuseFor(p, weighted)
	chunkSize := sched.ChunkSize(r.g.N, sched.DefaultChunks(r.pool.Workers()))

	if fz.ordered {
		r.scatterBuf.Grow(sched.NumChunks(r.g.N, chunkSize) + r.topo.Nodes)
	}
	r.dispatch(r.vertexPartition(), chunkSize, rec, func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		var out []sched.Contribution
		if fz.ordered {
			out = r.scatterBuf.Take(chunkID)
		}
		for v := rg.Lo; v < rg.Hi; v++ {
			src := uint32(v)
			if usesFrontier && !r.front.Contains(src) {
				continue
			}
			neigh := m.Edges(src)
			var ws []float32
			if weighted {
				ws = m.EdgeWeights(src)
			}
			for i, dst := range neigh {
				if tracksConv && r.conv.Contains(dst) {
					c.FrontierSkips++
					continue
				}
				var w float32
				if ws != nil {
					w = ws[i]
				}
				msg := fz.stepMsg(props, uint64(src), w)
				c.EdgesProcessed++
				if fz.ordered {
					out = append(out, sched.Contribution{Dst: dst, Val: msg})
					c.TLSWrites++
				} else {
					casCombine(&fz, &accum[dst], msg, skipEqual, &c)
				}
			}
		}
		if fz.ordered {
			r.scatterBuf.Save(chunkID, out)
		}
		rec.Record(tid, c)
	})
	if fz.ordered {
		mergeScatter(r, &fz)
	}
}
