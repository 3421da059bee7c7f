package vec

// laneIDMask selects the 48-bit source id of a Vector-Sparse lane word
// (vsparse.VertexMask; vsparse imports this package, so the constant is
// repeated here).
const laneIDMask = uint64(1)<<48 - 1

// RankSumRunGo sums contrib[src] (·weight when weights is non-nil) over the
// valid lanes of one run span — the whole vectors of one destination that
// fall inside one chunk — of a Vector-Sparse word array, and returns the sum:
// the Edge-Pull inner loop of the rank-sum programs (PageRank and its
// variants). RankSumRun is the same function on the process's selected
// kernel; this is the portable twin every build has.
//
// words holds the span's lanes, four per vector; bit 63 of a lane marks it
// valid and bits 47:0 carry the source id. contrib[n] is what source n sends
// along each of its out-edges this iteration, rank[n]·scale[n] rounded to
// float64 on its own — one product per vertex, made by the engine before the
// sweep, where a product per edge would gather two arrays for the same
// number. weights, when non-nil, is lane-parallel to words, and its padding
// lanes hold zero. Every valid lane's id must index contrib.
//
// Reduction order — part of the engine's determinism contract, DESIGN.md §5:
// lane k of every vector accumulates into its own partial sum l_k, in vector
// order, each weighted term rounded to float64 before it is added (no FMA),
// and the span's sum is (l0+l1)+(l2+l3). The AVX2 kernel follows it exactly,
// so the two are bit-identical. An invalid lane is skipped here where the
// assembly adds the +0 its masked gather left in the lane; a partial sum
// starts at +0 and can never become −0, so that agrees to the bit too. The
// float64 conversions keep a compiler that may fuse x*y + z (GOAMD64=v3,
// arm64) from doing so.
func RankSumRunGo(words []uint64, contrib []float64, weights []float32) float64 {
	var l0, l1, l2, l3 float64
	if weights == nil {
		for i := 0; i+Lanes <= len(words); i += Lanes {
			w0, w1, w2, w3 := words[i], words[i+1], words[i+2], words[i+3]
			if w0>>63 != 0 {
				l0 += contrib[w0&laneIDMask]
			}
			if w1>>63 != 0 {
				l1 += contrib[w1&laneIDMask]
			}
			if w2>>63 != 0 {
				l2 += contrib[w2&laneIDMask]
			}
			if w3>>63 != 0 {
				l3 += contrib[w3&laneIDMask]
			}
		}
		return (l0 + l1) + (l2 + l3)
	}
	for i := 0; i+Lanes <= len(words); i += Lanes {
		w0, w1, w2, w3 := words[i], words[i+1], words[i+2], words[i+3]
		if w0>>63 != 0 {
			l0 += float64(contrib[w0&laneIDMask] * float64(weights[i]))
		}
		if w1>>63 != 0 {
			l1 += float64(contrib[w1&laneIDMask] * float64(weights[i+1]))
		}
		if w2>>63 != 0 {
			l2 += float64(contrib[w2&laneIDMask] * float64(weights[i+2]))
		}
		if w3>>63 != 0 {
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
// index is the array's per-destination vector index (vsparse.Array.Index) and
// dst the destination that owns vector lo, the chunk's StartChunk top. A lane
// is live when its valid bit (63) is set and, if front is non-empty, the
// frontier bitset front has its source's bit; an ungated round passes nil.
// Every run the chunk holds to its end is an interior run: this chunk is its
// only writer, and accum[dst] = min(accum[dst], acc) stores it. The chunk's
// last run — the one that reaches hi, complete or not — is returned instead as
// (last, acc), for the caller's merge-buffer slot. A run with no live lane
// aggregates to Identity, ^uint64(0), which the interior store leaves as it
// found it. A destination without vectors in the chunk is skipped.
//
// In place (DESIGN.md §17): when inPlace is set, a live lane whose source lies
// in [first, dst) — first the chunk's StartChunk destination, the dst
// argument, and dst the current run's destination — contributes
// min(props[src], accum[src]) instead of props[src]. That window holds exactly
// the destinations this call has already stored, so accum there is this
// call's own write (or the Identity no chunk writes, for a destination without
// vectors): the read races with nothing, and a label crosses the whole chunk
// in one round. The current run is never in its own window, and a synchronous
// call (inPlace false) reads props alone.
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
func MinPropChunkGo(words []uint64, index []int, props, front, accum []uint64, dst, lo, hi int, inPlace bool) (last int, acc uint64) {
	const none = ^uint64(0)
	gated := len(front) != 0
	first := uint64(dst)
	for vi := lo; vi < hi; dst++ {
		end := index[dst+1]
		if end <= vi {
			continue // no vectors of dst left in the chunk
		}
		if end > hi {
			end = hi
		}
		// The window's width: 0 for a synchronous call and for the first run.
		var span uint64
		if inPlace {
			span = uint64(dst) - first
		}
		acc = none
		for ; vi < end; vi++ {
			w := words[vi*Lanes : vi*Lanes+Lanes : vi*Lanes+Lanes]
			n0, n1, n2, n3 := w[0]&laneIDMask, w[1]&laneIDMask, w[2]&laneIDMask, w[3]&laneIDMask
			v0, v1, v2, v3 := w[0]>>63, w[1]>>63, w[2]>>63, w[3]>>63
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
				if n0-first < span {
					p0 = min(p0, accum[n0])
				}
				if n1-first < span {
					p1 = min(p1, accum[n1])
				}
				if n2-first < span {
					p2 = min(p2, accum[n2])
				}
				if n3-first < span {
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
