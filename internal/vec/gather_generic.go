//go:build !amd64 || purego

package vec

// RankSumRun is RankSumRunGo on a build without the AVX2 assembly.
func RankSumRun(words, props []uint64, scale []float64, weights []float32) float64 {
	return RankSumRunGo(words, props, scale, weights)
}

// Kernel names the implementation RankSumRun runs in this process: "avx2" or
// "go".
func Kernel() string { return "go" }
