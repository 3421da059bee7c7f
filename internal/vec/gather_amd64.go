//go:build amd64 && !purego

package vec

// useAVX2 is decided once, at package initialization, from CPUID and XGETBV
// (gather_amd64.s): the CPU has AVX2 and the OS saves the ymm state. It
// selects all three kernels.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmSSE  = 0b110   // XCR0: xmm and ymm state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmSSE != ymmSSE {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// RankSumChunk is RankSumChunkGo on the process's selected kernel: the AVX2
// chunk walk of gather_amd64.s — one VGATHERDPD per vector, the dword-index
// form of the paper's vgatherqpd and the one place it is issued for real —
// when the CPU has it, the Go twin
// otherwise. The assembly does not bounds-check: base ≤ lo ≤ hi ≤
// base + len(words)/4, weights (when non-nil) as long as words, dst owns
// vector lo or precedes it with no vectors in between, every valid
// lane id indexes contrib, and every interior destination indexes accum —
// the Vector-Sparse format's guarantees for a chunk of its own grid
// (vsparse.Array.Validate).
func RankSumChunk(words []uint32, base int, index []int, contrib []float64, weights []float32, accum []uint64, dst, lo, hi int) (last int, acc uint64) {
	if useAVX2 {
		return rankSumChunkAVX2(words, base, index, contrib, weights, accum, dst, lo, hi)
	}
	return RankSumChunkGo(words, base, index, contrib, weights, accum, dst, lo, hi)
}

// MinPropChunk is MinPropChunkGo on the process's selected kernel: the AVX2
// chunk walk of gather_amd64.s — two VPGATHERDQ per gated vector, one per
// ungated, and one more of accum per vector of an in-place run — when the
// CPU has it, the Go twin otherwise. Like RankSumChunk it does not
// bounds-check: base ≤ lo ≤ hi ≤ base + len(words)/4, dst owns vector lo or
// precedes it with no vectors in between, first ≤ dst, every valid lane
// id indexes props and accum (and, gated, its frontier word front), and every
// destination the chunk holds indexes props and accum — the Vector-Sparse
// format's guarantees for a chunk of its own grid. With skipZero, the one
// scalar read of props[dst] per run skips a run at 0 before its vectors.
func MinPropChunk(words []uint32, base int, index []int, props, front, accum []uint64, first, dst, lo, hi int, inPlace, skipZero bool) (last int, acc uint64) {
	if useAVX2 {
		return minPropChunkAVX2(words, base, index, props, front, accum, first, dst, lo, hi, inPlace, skipZero)
	}
	return MinPropChunkGo(words, base, index, props, front, accum, first, dst, lo, hi, inPlace, skipZero)
}

// MinSrcChunk is MinSrcChunkGo on the process's selected kernel: the AVX2
// chunk walk of gather_amd64.s — one VPGATHERDQ of frontier words per vector
// visited — when the CPU has it, the Go twin otherwise. Like MinPropChunk it
// does not bounds-check: base ≤ lo ≤ hi ≤ base + len(words)/4, dst owns
// vector lo or precedes it with no vectors in between, every
// valid lane id indexes its frontier word in front, and every destination the
// chunk holds indexes accum and its word in conv.
func MinSrcChunk(words []uint32, base int, index []int, front, conv, accum []uint64, dst, lo, hi int) (last int, acc uint64) {
	if useAVX2 {
		return minSrcChunkAVX2(words, base, index, front, conv, accum, dst, lo, hi)
	}
	return MinSrcChunkGo(words, base, index, front, conv, accum, dst, lo, hi)
}

// Kernel names the implementation RankSumChunk, MinPropChunk and MinSrcChunk
// run in this process: "avx2" or "go".
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// Implemented in gather_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func rankSumChunkAVX2(words []uint32, base int, index []int, contrib []float64, weights []float32, accum []uint64, dst, lo, hi int) (last int, acc uint64)

//go:noescape
func minPropChunkAVX2(words []uint32, base int, index []int, props, front, accum []uint64, first, dst, lo, hi int, inPlace, skipZero bool) (last int, acc uint64)

//go:noescape
func minSrcChunkAVX2(words []uint32, base int, index []int, front, conv, accum []uint64, dst, lo, hi int) (last int, acc uint64)
