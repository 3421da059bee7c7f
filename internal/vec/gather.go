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
