package core

import (
	"math"

	"repro/internal/apps"
	"repro/internal/numa"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vsparse"
)

// edgePullSAWide is the scheduler-aware pull kernel on the 512-bit (8-lane)
// Vector-Sparse encoding — the AVX-512 generalization of §4. Structure
// matches edgePullSA: chunk-local accumulation, direct stores on top-level
// transitions, per-chunk merge-buffer slots, no synchronization. Bookkeeping
// (transition check, destination decode, validity test) amortizes over 8
// edges instead of 4, at the cost of the extra padding Fig 9 quantifies.
func edgePullSAWide[P apps.Program](r *ExecContext, p P) {
	a := r.g.VSD8()
	total := a.NumVectors()
	if total == 0 {
		return
	}
	// Granularity is configured in 4-lane vectors; one wide vector covers
	// two of them, keeping chunk work comparable across widths.
	chunkSize := (r.opt.chunkSizeFor(r.g.VSD.NumVectors(), r.pool.Workers()) + 1) / 2
	identity := p.Identity()
	usesFrontier := p.UsesFrontier()
	tracksConv := p.TracksConverged()
	weighted := p.Weighted() && a.Weights != nil
	frontWords := r.front.Words()
	props, accum := r.props, r.accum
	rec := r.edgeRec
	fz := fuseFor(p, weighted)
	words := a.Words
	part := numa.PartitionEven(total, r.topo.Nodes)

	r.dispatch(part, chunkSize, rec, func(rg sched.Range, chunkID, tid, node int) {
		var c perfmodel.Counters
		base0 := rg.Lo * vsparse.WideLanes
		prev := uint32(vsparse.DecodeTopWide(words[base0 : base0+vsparse.WideLanes]))
		acc := identity
		for vi := rg.Lo; vi < rg.Hi; vi++ {
			base := vi * vsparse.WideLanes
			lanes := words[base : base+vsparse.WideLanes]
			dst := uint32(vsparse.DecodeTopWide(lanes))
			if dst != prev {
				if acc != identity {
					accum[prev] = p.Combine(accum[prev], acc)
					c.SharedWrites++
				}
				prev, acc = dst, identity
			}
			c.VectorsProcessed++
			if tracksConv && r.conv.Contains(dst) {
				for _, w := range lanes {
					if w&vsparse.ValidBit != 0 {
						c.FrontierSkips++
					} else {
						c.InvalidLanes++
					}
				}
				continue
			}
			// Full-vector fast path: all eight valid bits set.
			all := lanes[0]
			for _, w := range lanes[1:] {
				all &= w
			}
			if !usesFrontier && !r.opt.AblateFullVector && all>>63 != 0 {
				// Hoist the fused-operator switch off the lane loop, as
				// step4 does for the 4-lane kernel.
				switch fz.kind {
				case apps.FusedRankSum:
					s := math.Float64frombits(acc)
					if weighted {
						for lane, w := range lanes {
							n := w & vsparse.VertexMask
							s += float64(float64(math.Float64frombits(props[n])*fz.scale[n]) * float64(a.Weights[base+lane]))
						}
					} else {
						for _, w := range lanes {
							n := w & vsparse.VertexMask
							s += float64(math.Float64frombits(props[n]) * fz.scale[n])
						}
					}
					acc = math.Float64bits(s)
				case apps.FusedMinProp:
					for _, w := range lanes {
						if v := props[w&vsparse.VertexMask]; v < acc {
							acc = v
						}
					}
				case apps.FusedMinSrc:
					for _, w := range lanes {
						if n := w & vsparse.VertexMask; n < acc {
							acc = n
						}
					}
				default:
					for lane, w := range lanes {
						n := w & vsparse.VertexMask
						var wt float32
						if weighted {
							wt = a.Weights[base+lane]
						}
						acc = step(p, &fz, props, acc, n, wt)
					}
				}
				c.EdgesProcessed += vsparse.WideLanes
				c.TLSWrites += vsparse.WideLanes
				continue
			}
			for lane, w := range lanes {
				if w&vsparse.ValidBit == 0 {
					c.InvalidLanes++
					continue
				}
				n := w & vsparse.VertexMask
				if usesFrontier && frontWords[n>>6]&(1<<(n&63)) == 0 {
					c.FrontierSkips++
					continue
				}
				var wt float32
				if weighted {
					wt = a.Weights[base+lane]
				}
				acc = step(p, &fz, props, acc, n, wt)
				c.EdgesProcessed++
				c.TLSWrites++
			}
		}
		r.mergeBuf.Save(chunkID, prev, acc)
		rec.Record(tid, c)
	})
	mergeAccum(r, p, identity)
}
