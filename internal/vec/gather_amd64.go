//go:build amd64 && !purego

package vec

// useAVX2 is decided once, at package initialization, from CPUID and XGETBV
// (gather_amd64.s): the CPU has AVX2 and the OS saves the ymm state. It
// selects both kernels.
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

// RankSumRun is RankSumRunGo on the process's selected kernel: the AVX2
// gather loop of gather_amd64.s when the CPU has it — the one place the
// paper's vgatherqpd is issued for real — and the Go twin otherwise. The
// assembly does not bounds-check its gather; that every lane id indexes
// contrib is the Vector-Sparse format's guarantee (vsparse.Array.Validate).
func RankSumRun(words []uint64, contrib []float64, weights []float32) float64 {
	if useAVX2 {
		return rankSumRunAVX2(words, contrib, weights)
	}
	return RankSumRunGo(words, contrib, weights)
}

// MinPropChunk is MinPropChunkGo on the process's selected kernel: the AVX2
// chunk walk of gather_amd64.s — two VPGATHERQQ per gated vector, one per
// ungated, and one more of accum per vector of an in-place run — when the
// CPU has it, the Go twin otherwise. Like RankSumRun it does not
// bounds-check: lo ≤ hi ≤ len(words)/4, dst owns vector lo, every valid lane
// id indexes props and accum (and, gated, its frontier word front), and every
// interior destination indexes accum — the Vector-Sparse format's guarantees
// for a chunk of its own grid.
func MinPropChunk(words []uint64, index []int, props, front, accum []uint64, dst, lo, hi int, inPlace bool) (last int, acc uint64) {
	if useAVX2 {
		return minPropChunkAVX2(words, index, props, front, accum, dst, lo, hi, inPlace)
	}
	return MinPropChunkGo(words, index, props, front, accum, dst, lo, hi, inPlace)
}

// Kernel names the implementation RankSumRun and MinPropChunk run in this
// process: "avx2" or "go".
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
func rankSumRunAVX2(words []uint64, contrib []float64, weights []float32) float64

//go:noescape
func minPropChunkAVX2(words []uint64, index []int, props, front, accum []uint64, dst, lo, hi int, inPlace bool) (last int, acc uint64)
