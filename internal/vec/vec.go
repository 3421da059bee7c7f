// Package vec is the engine's vector unit, in two parts.
//
// The software part stands in for the AVX2 SIMD instructions Grazelle's
// kernels are written in: a value of type U64x4 models one 256-bit ymm
// register holding four 64-bit lanes; masks model per-lane predication
// exactly as the AVX gather and blend instructions consume it. The frontier
// programs' pull kernels, the push kernels and the Vertex phase run on it, on
// every platform. Wider vectors are evaluated only analytically: the
// packing-efficiency study of Fig 9 computes 8- and 16-lane widths from
// degree distributions.
//
// The hardware part is two kernels in gather_amd64.s, selected once per
// process by a CPUID+XGETBV check in the same file. RankSumRun is the
// Edge-Pull of the rank-sum programs over one destination's run of vectors:
// the paper's vgatherqpd, one per vector, masked by the lane words' own valid
// bits, of a per-vertex array the engine prepares before each sweep,
// contrib[n] = rank[n]·scale[n] (the product is the same on every out-edge of
// n, so it is made once per vertex and read once per edge). MinPropChunk is
// the Edge-Pull of Connected Components over a whole scheduler chunk: per
// vector a VPGATHERQQ of the frontier words and one of props under the
// resulting live mask (in an in-place round, ungated, one of props and one of
// the chunk's own fresher accum words), an unsigned lane-wise min, and per
// destination run a horizontal min stored to accum. On any other platform, under -tags purego,
// or on a CPU without AVX2 each is its pure-Go twin (RankSumRunGo,
// MinPropChunkGo), bit-identical to the assembly (DESIGN.md §2, §5). Kernel
// reports which one the process runs.
package vec

import "math/bits"

// Lanes is the number of 64-bit lanes in the primary (256-bit) vector width.
const Lanes = 4

// U64x4 is four 64-bit lanes, the software analog of a ymm register.
type U64x4 [Lanes]uint64

// Mask is a per-lane predicate: bit i enables lane i. The AVX analog is the
// sign bit of each lane of a mask register.
type Mask uint8

// MaskAll enables every lane of a U64x4.
const MaskAll Mask = (1 << Lanes) - 1

// Bit reports whether lane i is enabled.
func (m Mask) Bit(i int) bool { return m&(1<<i) != 0 }

// Count returns the number of enabled lanes (popcnt on the mask register).
func (m Mask) Count() int { return bits.OnesCount8(uint8(m)) }

// First returns the index of the lowest enabled lane (tzcnt on the mask
// register); 8 when no lane is enabled.
func (m Mask) First() int { return bits.TrailingZeros8(uint8(m)) }

// Rest returns m without its lowest enabled lane (blsr). The kernels' lane
// loops walk a mask's set bits with it,
//
//	for m := mask; m != 0; m = m.Rest() { lane := m.First(); ... }
//
// so a vector costs one step per enabled lane, in ascending lane order,
// instead of Lanes tests.
func (m Mask) Rest() Mask { return m & (m - 1) }

// Broadcast returns a vector with x in every lane (vpbroadcastq).
func Broadcast(x uint64) U64x4 { return U64x4{x, x, x, x} }

// Load loads four consecutive lanes from s starting at i. The caller must
// guarantee i+4 <= len(s); the Vector-Sparse format exists precisely so this
// aligned, unguarded load is always legal (no per-lane bounds checks).
func Load(s []uint64, i int) U64x4 {
	_ = s[i+3] // one bounds check for the whole vector, as in an aligned vmovdqa
	return U64x4{s[i], s[i+1], s[i+2], s[i+3]}
}

// Store writes four consecutive lanes into s starting at i.
func Store(s []uint64, i int, v U64x4) {
	_ = s[i+3]
	s[i], s[i+1], s[i+2], s[i+3] = v[0], v[1], v[2], v[3]
}

// And returns the lane-wise AND with a broadcast constant (vpand).
func And(v U64x4, c uint64) U64x4 {
	for i := 0; i < Lanes; i++ {
		v[i] &= c
	}
	return v
}

// SignMask extracts bit 63 of each lane into a Mask (vmovmskpd). In the
// Vector-Sparse encoding bit 63 is the valid bit, so this yields the
// predicate for the whole vector in one operation.
func SignMask(v U64x4) Mask {
	var m Mask
	for i := 0; i < Lanes; i++ {
		m |= Mask(v[i]>>63) << i
	}
	return m
}

// TestBits returns a mask of lanes whose value has the probe bit set after
// indexing a bitset: lane i is enabled iff m enables it and bits[idx[i]/64]
// has bit idx[i]%64. This is the vectorized frontier-membership check: an
// unpredicated four-word gather whose result is ANDed with m, with no
// per-lane branch. Every lane of idx, enabled or not, must therefore index
// inside the bitset — which Vector-Sparse guarantees by padding dead lanes
// with a repeat of the group's last in-range id (vsparse.FromCSR).
func TestBits(bits []uint64, idx U64x4, m Mask) Mask {
	b0 := (bits[idx[0]>>6] >> (idx[0] & 63)) & 1
	b1 := (bits[idx[1]>>6] >> (idx[1] & 63)) & 1
	b2 := (bits[idx[2]>>6] >> (idx[2] & 63)) & 1
	b3 := (bits[idx[3]>>6] >> (idx[3] & 63)) & 1
	return m & Mask(b0|b1<<1|b2<<2|b3<<3)
}
