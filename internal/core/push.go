package core

import (
	"time"

	"repro/internal/apps"
	"repro/internal/numa"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// RunEdgePush executes one dense Edge-Push phase (Listing 1): the outer loop
// runs over every source vertex — letting the engine skip inactive sources
// cheaply, push's advantage — and every destination update is a
// synchronized shared write. Push uses the traditional parallelization in
// Grazelle (§5: "its push engine uses the traditional approach"); scheduler
// awareness cannot help because writes scatter across destinations.
//
// It is the one dense driver: the body is pushBody over VSS's vectors, or
// pushScalarBody over VSS's groups edge by edge for Scalar runs, chunked
// over source vertices.
// Min-style operators scatter by CAS, their result being
// interleaving-independent. Order-sensitive ones (fuse.ordered) append
// (destination, message) pairs to the chunk's private scatter-buffer slot
// instead, folded in chunk-id order after the barrier — deterministic at any
// worker count. Under Record a dense round charges every counter its body
// counts, the vectorized body's InvalidLanes and Local/Remote split
// included; runChunk charges each chunk's busy time. It returns the chunks
// the phase cut and its merge fold's wall.
func RunEdgePush(r *ExecContext, p apps.Program) edgeCost {
	fz := fuseFor(p, p.Weighted() && r.g.VSS.Weighted)
	var body func(rg sched.Range, chunkID, tid, node int)
	if r.opt.Scalar {
		body = pushScalarBody(r, &fz)
	} else {
		body = pushBody(r, &fz)
	}
	// Chunk over source vertices: the per-source frontier bit skips whole
	// adjacency lists (push's advantage, §2), and the vertex index — which
	// §4 keeps around precisely for frontier checks — locates each active
	// source's vectors.
	chunk := sched.ChunkSize(r.g.N, sched.DefaultChunks(r.pool.Workers()))
	if fz.ordered {
		r.scatterBuf.Grow(sched.NumChunks(r.g.N, chunk) + r.topo.Nodes)
	}
	cost := edgeCost{edgeChunks: r.dispatch(r.vertexPartition(), chunk, body)}
	if fz.ordered {
		cost.merged, cost.merge = true, mergeScatter(r, &fz)
	}
	return cost
}

// pushBody builds the vectorized dense Edge-Push chunk body: a chunk is a
// range of vertex ids, each tested against the frontier bitmap, with one
// frontier check and one property load per source vector, messages computed
// per lane, and a per-lane scatter — there is no atomic-update-scatter
// instruction (§6.2's explanation for push's flat vectorization response). A
// lane's write is a scatter-buffer append (fz.ordered) or a CAS. Under Record
// a dense round also charges InvalidLanes and the Local/Remote split, which a
// list-driven round (listPush) charges neither of.
func pushBody(r *ExecContext, fz *fuse) func(rg sched.Range, chunkID, tid, node int) {
	p := fz.p
	a := r.g.VSS
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	props, accum, conv := r.props, r.accum, r.conv.Words()
	rec := r.edgeRec
	return func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		var out []sched.Contribution
		if fz.ordered {
			out = r.scatterBuf.Take(chunkID)
		}
		for i := rg.Lo; i < rg.Hi; i++ {
			src := uint32(i)
			if usesFrontier && !r.front.Contains(src) {
				continue
			}
			// One slab holds the source's vectors.
			words, weights := a.Vectors(src)
			for base := 0; base < len(words); base += vec.Lanes {
				v0, v1, v2, v3 := words[base], words[base+1], words[base+2], words[base+3]
				c.VectorsProcessed++
				mask := signMask4(v0, v1, v2, v3)
				neigh := widen4(v0, v1, v2, v3)
				// Record-only lane counters, kept out of the lane loop.
				if rec != nil {
					c.InvalidLanes += uint64(vec.Lanes - mask.Count())
					for m := mask; m != 0; m = m.Rest() {
						if dst := uint32(neigh[m.First()]); !tracksConv || !r.conv.Contains(dst) {
							countLocality(r, node, &c, uint64(dst))
						}
					}
				}
				for m := mask; m != 0; m = m.Rest() {
					lane := m.First()
					dst := uint32(neigh[lane])
					if tracksConv && conv[dst>>6]&(1<<(dst&63)) != 0 {
						c.FrontierSkips++
						continue
					}
					c.EdgesProcessed++
					var w float32
					if fz.weighted {
						w = weights[base+lane]
					}
					msg := fz.stepMsg(props, uint64(src), w)
					if fz.ordered {
						out = append(out, sched.Contribution{Dst: dst, Val: msg})
						c.TLSWrites++
					} else {
						casCombine(fz, &accum[dst], msg, skipEqual, &c)
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

// listPush runs a list-driven round's Edge-Push lanes over front's entries
// rg: pushBody's walk minus the frontier test, each destination reached
// joining the touched set. Inline (the only writer) a min kind (bfs, cc)
// stores its per-source message's min plainly and other kinds plainCombine;
// otherwise lanes CAS. Ordered kinds append. It returns the counters.
func (r *ExecContext) listPush(front []uint32, rg sched.Range, chunkID int, inline bool) perfmodel.Counters {
	fz, tracksConv, skipEqual := &r.lr.fz, r.lr.tracksConv, r.lr.skipEqual
	minProp, minKind := fz.kind == apps.FusedMinProp, fz.kind == apps.FusedMinProp || fz.kind == apps.FusedMinSrc
	props, accum, conv, vss, touched := r.props, r.accum, r.conv.Words(), r.g.VSS, r.touched
	var c perfmodel.Counters
	var out []sched.Contribution
	if fz.ordered {
		out = r.scatterBuf.Take(chunkID)
	}
	for _, src := range front[rg.Lo:rg.Hi] {
		msg := uint64(src)
		if minProp {
			msg = props[src]
		}
		words, weights := vss.Vectors(src)
		for base := 0; base < len(words); base += vec.Lanes {
			v0, v1, v2, v3 := words[base], words[base+1], words[base+2], words[base+3]
			c.VectorsProcessed++
			mask := signMask4(v0, v1, v2, v3)
			neigh := widen4(v0, v1, v2, v3)
			for m := mask; m != 0; m = m.Rest() {
				lane := m.First()
				dst := uint32(neigh[lane])
				if tracksConv && conv[dst>>6]&(1<<(dst&63)) != 0 {
					c.FrontierSkips++
					continue
				}
				c.EdgesProcessed++
				if minKind && inline {
					if old := accum[dst]; msg < old || !skipEqual {
						accum[dst] = min(old, msg)
						c.SharedWrites++
					} else {
						c.SkippedWrites++
					}
				} else {
					var w float32
					if fz.weighted {
						w = weights[base+lane]
					}
					msg := fz.stepMsg(props, uint64(src), w)
					switch {
					case fz.ordered:
						out = append(out, sched.Contribution{Dst: dst, Val: msg})
						c.TLSWrites++
					case inline:
						plainCombine(fz, &accum[dst], msg, skipEqual, &c)
					default:
						casCombine(fz, &accum[dst], msg, skipEqual, &c)
					}
				}
				if inline {
					touched.add(dst)
				} else {
					touched.addAtomic(dst)
				}
			}
		}
	}
	if fz.ordered {
		r.scatterBuf.Save(chunkID, out)
	}
	return c
}

// mergeScatter folds the scatter buffer into the shared accumulators in
// chunk-id order — the push-side analog of mergeAccum, running on one
// thread after the barrier. It returns the fold's wall.
func mergeScatter(r *ExecContext, fz *fuse) time.Duration {
	t0 := time.Now()
	accum := r.accum
	n := r.scatterBuf.Merge(func(dst uint32, v uint64) {
		accum[dst] = fz.combine(accum[dst], v)
	})
	r.edgeRec.Record(0, perfmodel.Counters{MergeOps: uint64(n), SharedWrites: uint64(n)})
	return time.Since(t0)
}

// pushScalarBody builds the scalar Edge-Push chunk body, Fig 10a's
// Edge-Push baseline: chunked over source vertices, inner loop serial over
// a source's group (vsparse.Array.Group: its valid lanes, the
// Compressed-Sparse group edge for edge), one CAS per live edge — or, for
// order-sensitive programs, one scatter-buffer append. It runs dense rounds
// only (RunEdgePush), charging no InvalidLanes and no Local/Remote split.
func pushScalarBody(r *ExecContext, fz *fuse) func(rg sched.Range, chunkID, tid, node int) {
	a := r.g.VSS
	p := fz.p
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	skipEqual := p.SkipEqualWrites()
	weighted, ordered := fz.weighted, fz.ordered
	props, accum := r.props, r.accum
	rec := r.edgeRec
	return func(rg sched.Range, chunkID, tid, _ int) {
		var c perfmodel.Counters
		var out []sched.Contribution
		if ordered {
			out = r.scatterBuf.Take(chunkID)
		}
		for v := rg.Lo; v < rg.Hi; v++ {
			src := uint32(v)
			if usesFrontier && !r.front.Contains(src) {
				continue
			}
			lanes, ws := a.Group(src)
			for i, lane := range lanes {
				dst := lane & vsparse.VertexMask
				if tracksConv && r.conv.Contains(dst) {
					c.FrontierSkips++
					continue
				}
				var w float32
				if weighted {
					w = ws[i]
				}
				msg := fz.stepMsg(props, uint64(src), w)
				c.EdgesProcessed++
				if ordered {
					out = append(out, sched.Contribution{Dst: dst, Val: msg})
					c.TLSWrites++
				} else {
					casCombine(fz, &accum[dst], msg, skipEqual, &c)
				}
			}
		}
		if ordered {
			r.scatterBuf.Save(chunkID, out)
		}
		rec.Record(tid, c)
	}
}

// vertexPartition gives the NUMA partition of the vertex index space (cheap
// to recompute per phase).
func (r *ExecContext) vertexPartition() numa.Partition {
	return numa.PartitionEven(r.g.N, r.topo.Nodes)
}
