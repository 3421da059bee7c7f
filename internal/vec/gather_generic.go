//go:build !amd64 || purego

package vec

// RankSumRun is RankSumRunGo on a build without the AVX2 assembly.
func RankSumRun(words []uint64, contrib []float64, weights []float32) float64 {
	return RankSumRunGo(words, contrib, weights)
}

// Kernel names the implementation RankSumRun runs in this process: "avx2" or
// "go".
func Kernel() string { return "go" }
