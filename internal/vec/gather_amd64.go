//go:build amd64 && !purego

package vec

// useAVX2 is decided once, at package initialization, from CPUID and XGETBV
// (gather_amd64.s): the CPU has AVX2 and the OS saves the ymm state.
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

// Kernel names the implementation RankSumRun runs in this process: "avx2" or
// "go".
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
