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
// pullSpanBody. Two kinds of program qualify. One gathers every in-edge every
// iteration (no frontier, no converged set) and its aggregate is a rank sum
// or an operator the engine does not classify. The other is a FusedMinProp
// program (cc), frontier-gated or not, synchronous or in place: its
// per-vector test is folded into the chunk walk's gathers, and its in-place
// read into the walk's window. Converged sets, the other frontier kinds
// (sssp's in-place rounds among them), a Record run's in-place rounds — their
// counters are the gated walk's — and the full-vector ablation keep
// pullSABody's vector-by-vector walk.
func (ec *ExecContext) pullsBySpan(p apps.Program, kind apps.FusedKind) bool {
	if p.TracksConverged() || ec.opt.AblateFullVector {
		return false
	}
	inPlace := ec.inPlace(p)
	switch kind {
	case apps.FusedMinProp:
		return !inPlace || !ec.opt.Record
	case apps.FusedRankSum, apps.FusedNone:
		return !inPlace && !p.UsesFrontier()
	}
	return false
}

// pullSpanBody is the scheduler-aware chunk body of the programs pullsBySpan
// admits. Nothing in their Edge-Pull needs a branch per vector, so the chunk
// is walked by destination run instead of by vector.
//
// A FusedMinProp program hands the whole chunk to one vec.MinPropChunk call
// (the AVX2 VPGATHERQQ walk where the CPU has it): a frontier-gated round
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
// Apply outcome and no iteration count (TestMinPropChunkMatchesVectorWalk and
// the equivalence matrix pin every round to the gated walk's).
//
// A rank sum or an unclassified program reduces each run span — the run's
// vectors clipped to the chunk — in one call: vec.RankSumRun for a rank sum
// (the AVX2 vgatherqpd loop where the CPU has it), laneFold for anything
// else. A rank sum's per-edge term, props[n]·scale[n], is the same number on
// every out-edge of n, so building the body first multiplies it out once per
// vertex into the context's contrib array (refreshContrib) and the sweep
// gathers that: one array read per lane instead of two. Each product was
// already rounded on its own before it was added, so the lanes are the bits
// the per-edge product gave.
//
// A Record run walks the chunk span by span in Go for every kind, so the
// counters are charged per run exactly as the vector walk charged them.
//
// The chunk grid, the transition stores and the merge slots are pullSABody's:
// an interior run flushes to accum[dst], which no other chunk writes, and the
// chunk's last destination goes to its merge slot, folded in chunk order. The
// reduction order inside a rank-sum span is lane-wise — DESIGN.md §5 — and is
// the same for the assembly, its Go twin and laneFold; a min needs no order.
// So a run's bits depend on the graph and the chunk grid alone, as before.
func pullSpanBody(r *ExecContext, fz *fuse) func(rg sched.Range, chunkID, tid, node int) {
	p := fz.p
	a := r.g.VSD
	identity := p.Identity()
	props, accum := r.props, r.accum
	rec := r.edgeRec
	words, index := a.Words, a.Index
	var weights []float32
	if fz.weighted {
		weights = a.Weights
	}
	rankSum, minProp := vec.RankSumRun, vec.MinPropChunk
	if r.opt.AblateSIMD {
		rankSum, minProp = vec.RankSumRunGo, vec.MinPropChunkGo
	}
	var contrib []float64
	if fz.kind == apps.FusedRankSum {
		contrib = r.refreshContrib(fz.scale)
	}
	// A full frontier passes every membership test: the round runs ungated
	// unless the paper configuration asks for the tests. An in-place round
	// runs ungated whatever the frontier holds (above).
	inPlace := r.inPlace(p)
	var front []uint64
	if p.UsesFrontier() && !inPlace && (r.opt.AblateFrontierWork || !r.front.Full()) {
		front = r.front.Words()
	}
	if fz.kind == apps.FusedMinProp && rec == nil {
		return func(rg sched.Range, chunkID, tid, node int) {
			dst, acc := minProp(words, index, props, front, accum, int(firstTop(a, rg.Lo)), rg.Lo, rg.Hi, inPlace)
			r.mergeBuf.Save(chunkID, uint32(dst), acc)
		}
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
			switch fz.kind {
			case apps.FusedRankSum:
				acc = math.Float64bits(rankSum(span, contrib, ws))
			case apps.FusedMinProp:
				// [lo, hi) is one run to its end: the call returns it. A
				// Record run's in-place rounds never come here.
				_, acc = minProp(words, index, props, front, accum, int(dst), lo, hi, false)
			default:
				acc = laneFold(fz, span, ws, props, identity)
			}
			if rec != nil {
				countSpan(r, node, &c, span, front)
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
				accum[dst] = fz.combine(accum[dst], acc)
				c.SharedWrites++
			}
			lo = hi
		}
		rec.Record(tid, c)
	}
}

// refreshContrib sets contrib[v] = props[v]·scale[v] for every vertex, each
// product rounded to float64 on its own exactly as step rounds it per edge,
// and returns the array. It runs on the driver goroutine before the pull's
// dispatch, when no chunk of this run is in flight, as one statically
// scheduled pass.
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
func laneFold(fz *fuse, words []uint64, weights []float32, props []uint64, identity uint64) uint64 {
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
			l[lane] = fz.p.Combine(l[lane], fz.p.Message(props[n], uint32(n), wt))
		}
	}
	return fz.p.Combine(fz.p.Combine(l[0], l[1]), fz.p.Combine(l[2], l[3]))
}

// countSpan charges one run span to the Record counters exactly as the
// vector-by-vector walk would have: every vector processed, every invalid
// lane invalid, every valid lane whose source the frontier words front lack
// (when front is non-nil) a frontier skip, and every other lane an edge
// gathered into thread-local state.
func countSpan(r *ExecContext, node int, c *perfmodel.Counters, words, front []uint64) {
	valid, live := uint64(0), uint64(0)
	for _, w := range words {
		if w&vsparse.ValidBit == 0 {
			continue
		}
		valid++
		n := w & vsparse.VertexMask
		if front != nil && (front[n>>6]>>(n&63))&1 == 0 {
			continue
		}
		live++
		countLocality(r, node, c, n)
	}
	c.VectorsProcessed += uint64(len(words) / vec.Lanes)
	c.EdgesProcessed += live
	c.TLSWrites += live
	c.InvalidLanes += uint64(len(words)) - valid
	c.FrontierSkips += valid - live
}
