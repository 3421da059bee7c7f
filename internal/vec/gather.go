package vec

import (
	"math"
	"math/bits"
)

// laneIDMask selects the 31-bit source id of a Vector-Sparse lane word
// (vsparse.VertexMask; vsparse imports this package, so the constant is
// repeated here).
const laneIDMask = uint32(1)<<31 - 1

// RankSumChunkGo is the Edge-Pull of the rank-sum programs (PageRank and its
// variants) over one scheduler chunk: vectors [lo, hi) of a Vector-Sparse
// array, walked destination run by destination run, each run reduced to the
// sum of contrib[src] (·weight when weights is non-nil) over its valid lanes.
// RankSumChunk is the same function on the process's selected kernel; this
// is the portable twin every build has.
//
// words holds four 32-bit lanes per vector, from vector base on: vector vi,
// numbered array-wide as index numbers it, is words[(vi−base)·4:]. A caller
// passes one slab of the array (vsparse.Slab) and its Base, so [lo, hi) lies
// in that slab. Bit 31 of a lane marks it valid and bits 30:0 carry the
// source id. contrib[n] is what source n sends along
// each of its out-edges this iteration, rank[n]·scale[n] rounded to float64
// on its own — one product per vertex, made by the engine before the sweep,
// where a product per edge would gather two arrays for the same number. weights, when
// non-nil, is lane-parallel to words, and its padding lanes hold zero. Every
// valid lane's id must index contrib.
//
// index, dst, the interior stores and the returned last run are
// MinPropChunkGo's, with float64 addition for min: every run the chunk holds
// to its end is stored as accum[dst] = accum[dst] + sum, the words read and
// written as float64 bits, and the run that reaches hi, complete or not, is
// returned as (last, acc) with acc the sum's bits. Identity is +0, so an
// empty chunk returns (dst, 0).
//
// Reduction order — part of the engine's determinism contract, DESIGN.md §5:
// within a run, lane k of every vector accumulates into its own partial sum
// l_k, in vector order, each weighted term rounded to float64 before it is
// added (no FMA), and the run's sum is (l0+l1)+(l2+l3). The AVX2 kernel
// follows it exactly, so the two are bit-identical. An invalid lane is
// skipped here where the assembly adds the +0 its masked gather left in the
// lane; a partial sum starts at +0 and can never become −0, so that agrees to
// the bit too. The float64 conversions keep a compiler that may fuse x*y + z
// (GOAMD64=v3, arm64) from doing so.
func RankSumChunkGo(words []uint32, base int, index []int, contrib []float64, weights []float32, accum []uint64, dst, lo, hi int) (last int, acc uint64) {
	for vi := lo; vi < hi; dst++ {
		end := index[dst+1]
		if end <= vi {
			continue // no vectors of dst left in the chunk
		}
		end = min(end, hi)
		from, to := (vi-base)*Lanes, (end-base)*Lanes
		var ws []float32
		if weights != nil {
			ws = weights[from:to]
		}
		sum := rankSumSpan(words[from:to], contrib, ws)
		if end == hi {
			return dst, math.Float64bits(sum)
		}
		accum[dst] = math.Float64bits(math.Float64frombits(accum[dst]) + sum)
		vi = end
	}
	return dst, 0
}

// rankSumSpan is RankSumChunkGo's sum of one run span, the run's vectors
// clipped to the chunk, in the documented order. It is a call of its own:
// inlined into the chunk walk, the lane loop spilled its slice headers.
func rankSumSpan(words []uint32, contrib []float64, weights []float32) float64 {
	var l0, l1, l2, l3 float64
	if weights == nil {
		for i := 0; i+Lanes <= len(words); i += Lanes {
			w0, w1, w2, w3 := words[i], words[i+1], words[i+2], words[i+3]
			if w0>>31 != 0 {
				l0 += contrib[w0&laneIDMask]
			}
			if w1>>31 != 0 {
				l1 += contrib[w1&laneIDMask]
			}
			if w2>>31 != 0 {
				l2 += contrib[w2&laneIDMask]
			}
			if w3>>31 != 0 {
				l3 += contrib[w3&laneIDMask]
			}
		}
		return (l0 + l1) + (l2 + l3)
	}
	for i := 0; i+Lanes <= len(words); i += Lanes {
		w0, w1, w2, w3 := words[i], words[i+1], words[i+2], words[i+3]
		if w0>>31 != 0 {
			l0 += float64(contrib[w0&laneIDMask] * float64(weights[i]))
		}
		if w1>>31 != 0 {
			l1 += float64(contrib[w1&laneIDMask] * float64(weights[i+1]))
		}
		if w2>>31 != 0 {
			l2 += float64(contrib[w2&laneIDMask] * float64(weights[i+2]))
		}
		if w3>>31 != 0 {
			l3 += float64(contrib[w3&laneIDMask] * float64(weights[i+3]))
		}
	}
	return (l0 + l1) + (l2 + l3)
}

// MinPropChunkGo is the Edge-Pull of a FusedMinProp program (Connected
// Components) over one scheduler chunk: vectors [lo, hi) of a Vector-Sparse
// array, walked destination run by destination run, each run reduced to
// min(props[src]) over its live lanes. MinPropChunk is the same function on
// the process's selected kernel; this is the portable twin every build has.
//
// words and base are RankSumChunkGo's. index is the array's per-destination
// vector index (vsparse.Array.Index) and dst the first destination to look
// at: the chunk's StartChunk top, or any destination up to the one that owns
// vector lo, destinations without vectors at lo being passed over. A lane
// is live when its valid bit (31) is set and, if front is non-empty, the
// frontier bitset front has its source's bit; an ungated round passes nil.
// Every run the chunk holds to its end is an interior run: this chunk is its
// only writer, and accum[dst] = min(accum[dst], acc) stores it. The chunk's
// last run — the one that reaches hi, complete or not — is returned instead as
// (last, acc), for the caller's merge-buffer slot. A run with no live lane
// aggregates to Identity, ^uint64(0), which the interior store leaves as it
// found it. A destination without vectors in the chunk is skipped.
//
// When skipZero is set, a run whose destination's own label props[dst] is 0
// is passed over without a vector read: nothing is stored, and as the chunk's
// last run it returns (dst, Identity). Zero is the least label, so the
// program's fixed Apply, (min(old, agg), agg < old), cannot move it whatever
// the run aggregates (DESIGN.md §5, "A destination at 0"). The paper
// configuration clears it and walks every run.
//
// In place (DESIGN.md §17): when inPlace is set, a live lane whose source lies
// in [first, dst) — first the chunk's StartChunk destination and dst the
// current run's destination — contributes min(props[src], accum[src]) instead
// of props[src]. That window holds exactly the destinations the chunk has
// already stored, so accum there is the chunk's own write (or the Identity no
// chunk writes, for a destination without vectors): the read races with
// nothing, and a label crosses the whole chunk in one round. A chunk walked
// in several calls, one per slab, passes every call the chunk's first, so the
// window is the chunk's and takes in the runs earlier calls and their caller
// stored; the first call passes dst = first. The current run is never in its
// own window, and a synchronous call (inPlace false) reads props alone. A
// skipped run leaves its accum word as it found it, and a window lane that
// reads it also reads its props, 0, which no accum word can lower.
//
// Min is exact and order-free, so no reduction order is part of the contract:
// the assembly keeps a running minimum per lane and folds them at the run's
// end, this twin folds each vector into one, and both give the same bits as
// any other order. The per-lane step is branch-free — a dead lane
// reads props[n] | ^0 = Identity — so every lane reads props at its id;
// Vector-Sparse pads dead lanes with an in-range id (vsparse.FromCSR), and
// the frontier words are indexed the same way. Inside the window the twin
// reads accum for dead lanes too and masks it the same way; the assembly
// gathers it for live lanes only.
func MinPropChunkGo(words []uint32, base int, index []int, props, front, accum []uint64, first, dst, lo, hi int, inPlace, skipZero bool) (last int, acc uint64) {
	const none = ^uint64(0)
	gated := len(front) != 0
	for vi := lo; vi < hi; dst++ {
		end := index[dst+1]
		if end <= vi {
			continue // no vectors of dst left in the chunk
		}
		if end > hi {
			end = hi
		}
		if skipZero && props[dst] == 0 {
			if vi = end; vi == hi {
				return dst, none
			}
			continue
		}
		// The window's width: 0 for a synchronous call and for the first run.
		var span uint64
		if inPlace {
			span = uint64(dst - first)
		}
		acc = none
		for ; vi < end; vi++ {
			k := (vi - base) * Lanes
			w := words[k : k+Lanes : k+Lanes]
			n0, n1, n2, n3 := uint64(w[0]&laneIDMask), uint64(w[1]&laneIDMask), uint64(w[2]&laneIDMask), uint64(w[3]&laneIDMask)
			v0, v1, v2, v3 := uint64(w[0]>>31), uint64(w[1]>>31), uint64(w[2]>>31), uint64(w[3]>>31)
			if gated {
				v0 &= front[n0>>6] >> (n0 & 63)
				v1 &= front[n1>>6] >> (n1 & 63)
				v2 &= front[n2>>6] >> (n2 & 63)
				v3 &= front[n3>>6] >> (n3 & 63)
			}
			p0, p1, p2, p3 := props[n0], props[n1], props[n2], props[n3]
			if span != 0 {
				// n − first wraps for a source below first, so one unsigned
				// compare tests both ends.
				f := uint64(first)
				if n0-f < span {
					p0 = min(p0, accum[n0])
				}
				if n1-f < span {
					p1 = min(p1, accum[n1])
				}
				if n2-f < span {
					p2 = min(p2, accum[n2])
				}
				if n3-f < span {
					p3 = min(p3, accum[n3])
				}
			}
			// v is 1 for a live lane and 0 for a dead one: v−1 is 0 or ^0.
			acc = min(acc, min(min(p0|(v0-1), p1|(v1-1)), min(p2|(v2-1), p3|(v3-1))))
		}
		if vi == hi {
			return dst, acc
		}
		accum[dst] = min(accum[dst], acc)
	}
	return dst, none
}

// MinSrcChunkGo is the Edge-Pull of a FusedMinSrc program (Breadth-First
// Search) over one scheduler chunk: vectors [lo, hi) of a Vector-Sparse
// array, walked destination run by destination run, each run reduced to the
// smallest live source id it holds. MinSrcChunk is the same function on the
// process's selected kernel; this is the portable twin every build has.
//
// words, base, index, dst, the interior stores and the returned last run are
// MinPropChunkGo's. A run whose destination the converged bitset conv holds
// is skipped whole, without a vector read, and aggregates to Identity,
// ^uint64(0) (BFS's NoParent). In any other run a lane is live when its valid
// bit (31) is set and the frontier bitset front has its source's bit; both
// bitsets are required. A run ascends by source (csr.FromGraph sorts each
// group; padding lanes are dead), so the first live lane in vector and lane
// order holds the run's minimum: the walk takes that lane's id and leaves the
// run for index[dst+1] without reading the rest of it. A run that straddles
// chunks yields one such first lane per chunk, and the least of them — the
// first chunk's — is what a walk of the whole run would have taken.
//
// The lane test is branch-free over the vector — four frontier words read
// through every lane, dead ones included, and masked by the valid bits — and
// the first live lane is the mask's lowest set bit; Vector-Sparse pads dead
// lanes with an in-range id (vsparse.FromCSR), so the reads stay in front.
// The assembly gathers the words under the valid bits instead; the live mask,
// and so every returned and stored word, is the same.
func MinSrcChunkGo(words []uint32, base int, index []int, front, conv, accum []uint64, dst, lo, hi int) (last int, acc uint64) {
	const none = ^uint64(0)
	for vi := lo; vi < hi; dst++ {
		end := index[dst+1]
		if end <= vi {
			continue // no vectors of dst left in the chunk
		}
		acc = none
		if conv[dst>>6]>>(uint(dst)&63)&1 == 0 {
			for v := vi; v < min(end, hi); v++ {
				k := (v - base) * Lanes
				w := words[k : k+Lanes : k+Lanes]
				n0, n1, n2, n3 := w[0]&laneIDMask, w[1]&laneIDMask, w[2]&laneIDMask, w[3]&laneIDMask
				live := uint64(w[0]>>31)&(front[n0>>6]>>(n0&63)) |
					(uint64(w[1]>>31)&(front[n1>>6]>>(n1&63)))<<1 |
					(uint64(w[2]>>31)&(front[n2>>6]>>(n2&63)))<<2 |
					(uint64(w[3]>>31)&(front[n3>>6]>>(n3&63)))<<3
				if live != 0 {
					acc = uint64(w[bits.TrailingZeros64(live)] & laneIDMask)
					break
				}
			}
		}
		if end >= hi {
			return dst, acc
		}
		accum[dst] = min(accum[dst], acc)
		vi = end
	}
	return dst, none
}
