//go:build !amd64 || purego

package vec

// RankSumRun is RankSumRunGo on a build without the AVX2 assembly.
func RankSumRun(words []uint64, contrib []float64, weights []float32) float64 {
	return RankSumRunGo(words, contrib, weights)
}

// MinPropChunk is MinPropChunkGo on a build without the AVX2 assembly.
func MinPropChunk(words []uint64, index []int, props, front, accum []uint64, dst, lo, hi int, inPlace bool) (last int, acc uint64) {
	return MinPropChunkGo(words, index, props, front, accum, dst, lo, hi, inPlace)
}

// Kernel names the implementation RankSumRun and MinPropChunk run in this
// process: "avx2" or "go".
func Kernel() string { return "go" }
