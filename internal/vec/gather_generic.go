//go:build !amd64 || purego

package vec

// RankSumChunk is RankSumChunkGo on a build without the AVX2 assembly.
func RankSumChunk(words []uint32, base int, index []int, contrib []float64, weights []float32, accum []uint64, dst, lo, hi int) (last int, acc uint64) {
	return RankSumChunkGo(words, base, index, contrib, weights, accum, dst, lo, hi)
}

// MinPropChunk is MinPropChunkGo on a build without the AVX2 assembly.
func MinPropChunk(words []uint32, base int, index []int, props, front, accum []uint64, first, dst, lo, hi int, inPlace, skipZero bool) (last int, acc uint64) {
	return MinPropChunkGo(words, base, index, props, front, accum, first, dst, lo, hi, inPlace, skipZero)
}

// MinSrcChunk is MinSrcChunkGo on a build without the AVX2 assembly.
func MinSrcChunk(words []uint32, base int, index []int, front, conv, accum []uint64, dst, lo, hi int) (last int, acc uint64) {
	return MinSrcChunkGo(words, base, index, front, conv, accum, dst, lo, hi)
}

// Kernel names the implementation RankSumChunk, MinPropChunk and MinSrcChunk
// run in this process: "avx2" or "go".
func Kernel() string { return "go" }
