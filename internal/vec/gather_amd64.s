//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func rankSumRunAVX2(words []uint64, contrib []float64, weights []float32) float64
//
// One iteration per vector: load four lane words, mask out the 48-bit source
// ids, gather contrib[id] under the words' own bit 63 (a lane whose valid bit
// is clear is not loaded and keeps the zero its register was cleared to;
// the gather consumes its mask, and the words are not needed again), and add
// into the four lane accumulators in Y0. The weighted loop multiplies by the
// lane weights first; no FMA: the product is rounded before it is added, as
// RankSumRunGo does it. The loop reads exactly len(words)/4 whole vectors
// and 16 bytes of weights per vector, never past either slice.
TEXT ·rankSumRunAVX2(SB), NOSPLIT, $0-80
	MOVQ words_base+0(FP), SI
	MOVQ words_len+8(FP), CX
	MOVQ contrib_base+24(FP), R8
	MOVQ weights_base+48(FP), R10
	VPXOR Y0, Y0, Y0 // l0..l3
	SHRQ $2, CX      // vectors in the span
	JZ   fold
	MOVQ $0x0000FFFFFFFFFFFF, AX
	VMOVQ AX, X7 // VEX-encoded: a legacy SSE move between 256-bit instructions costs two state transitions
	VPBROADCASTQ X7, Y7 // the id mask in every lane
	TESTQ R10, R10
	JNZ  weighted

plain:
	VMOVDQU (SI), Y1
	VPAND   Y7, Y1, Y2 // ids
	VPXOR   Y4, Y4, Y4
	VGATHERQPD Y1, (R8)(Y2*8), Y4 // contrib[id]
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, SI
	DECQ    CX
	JNZ     plain
	JMP     fold

weighted:
	VMOVDQU (SI), Y1
	VPAND   Y7, Y1, Y2
	VPXOR   Y4, Y4, Y4
	VGATHERQPD Y1, (R8)(Y2*8), Y4
	VCVTPS2PD (R10), Y6 // four float32 lane weights
	VMULPD  Y6, Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $16, R10
	DECQ    CX
	JNZ     weighted

fold:
	// (l0+l1)+(l2+l3)
	VEXTRACTF128 $1, Y0, X1
	VHADDPD   X1, X0, X0 // X0 = [l0+l1, l2+l3]
	VPERMILPD $1, X0, X1
	VADDSD    X1, X0, X0
	VMOVSD X0, ret+72(FP)
	VZEROUPPER
	RET

// func minPropChunkAVX2(words []uint64, index []int, props, front, accum []uint64, dst, lo, hi int, inPlace bool) (last int, acc uint64)
//
// The whole chunk in one call: per destination run (index[dst+1] clipped to
// hi) a vector loop, then a horizontal min, then an interior store or the
// return. Per vector, gated: gather the four frontier words front[id>>6]
// under the lanes' valid bits, shift each lane's frontier bit into its sign
// (left by 63−id&63, which is ^id&63), AND with the raw words so the sign is
// valid∧member, and gather props[id] under that into an all-ones (Identity)
// register. Ungated rounds gather props under the valid bits directly.
//
// In place, a run whose window [first, dst) is not empty takes the window
// loop instead: after the live mask, the lanes with id − first <ᵤ dst − first
// (a sign-flipped VPCMPGTQ against the run's broadcast width) gather
// accum[id] under live∧window into a second all-ones register, and the lane
// takes the unsigned min of the two gathers. The one exception is a lane
// reading the destination the previous run has just stored: gathering it
// makes the run wait for that store to retire, so it is masked out, and the
// stored value, kept in AX, joins the run's minimum after the horizontal min
// if any live lane read it. Every other run takes the loops above, and their
// runs end exactly as before; a synchronous call sets first so high that no
// window is ever open.
//
// AVX2 has no unsigned 64-bit min, so the lane accumulators in Y0 hold their
// values with bit 63 flipped, where a signed VPCMPGTQ orders them as
// unsigned; a gathered vector is flipped once on its way in and the run's
// minimum flipped back once on its way out.
//
// Registers: SI words (after set-up, a window run's fold value), DI index,
// R8 props, R9 front (0: ungated), R10 accum, DX dst, BX the vector the next
// run starts at, R11 hi, R12 the run's end, R13 the current vector's
// address, CX vectors left in the run, R14 first (2^63−1 for a synchronous
// call), AX the run's minimum, then the value it stored. Y15 the sign bit,
// Y14 the id mask, Y13 63, Y12 all ones, Y11 the run's window width with bit
// 63 flipped, Y10 first, X7 the last stored destination (broadcast to Y7 in a
// window run), Y8 the window run's lanes that read it.
TEXT ·minPropChunkAVX2(SB), NOSPLIT, $0-168
	MOVQ words_base+0(FP), SI
	MOVQ index_base+24(FP), DI
	MOVQ props_base+48(FP), R8
	MOVQ front_base+72(FP), R9
	MOVQ front_len+80(FP), AX
	TESTQ AX, AX
	CMOVQEQ AX, R9 // an empty frontier slice means ungated
	MOVQ accum_base+96(FP), R10
	MOVQ dst+120(FP), DX
	MOVQ lo+128(FP), BX
	MOVQ hi+136(FP), R11
	MOVQ DX, R14
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	CMPB inPlace+144(FP), $0
	CMOVQEQ AX, R14 // synchronous: dst − first < 0 for every dst
	MOVQ $-1, AX // an empty chunk aggregates to Identity
	CMPQ BX, R11
	JGE  done

	MOVQ $0x0000FFFFFFFFFFFF, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ $63, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13
	VMOVQ R14, X10
	VPBROADCASTQ X10, Y10
	VMOVQ R14, X7 // an in-place call's first run, first's, is stored first
	VPCMPEQQ Y12, Y12, Y12
	VPSLLQ $63, Y12, Y15
	VPSRLQ $1, Y12, Y0 // flipped Identity

	MOVQ BX, R13
	SHLQ $5, R13
	ADDQ SI, R13 // &words[lo*4]
	MOVQ 8(DI)(DX*8), R12
	CMPQ R12, BX
	JG   run
	VPCMPEQQ X7, X7, X7 // dst owns no vector at or after lo: nothing is stored at first
	JMP  next

run:
	// R12 = index[dst+1] > BX: dst's share of the chunk is [BX, min(R12, hi)).
	CMPQ R12, R11
	CMOVQGT R11, R12
	MOVQ R12, CX
	SUBQ BX, CX
	MOVQ R12, BX
	MOVQ DX, R12
	SUBQ R14, R12 // the window's width, dst − first
	JG   inplace
	TESTQ R9, R9
	JZ   ungated

gated:
	VMOVDQU (R13), Y1
	VPAND   Y14, Y1, Y2 // ids
	VPSRLQ  $6, Y2, Y5  // frontier word of each id
	VMOVDQA Y1, Y6      // the gather consumes its mask
	VPXOR   Y9, Y9, Y9
	VPGATHERQQ Y6, (R9)(Y5*8), Y9
	VPANDN  Y13, Y2, Y4 // 63 − id&63
	VPSLLVQ Y4, Y9, Y9  // frontier bit → bit 63
	VPAND   Y1, Y9, Y9  // ∧ valid
	VMOVDQA Y12, Y3
	VPGATHERQQ Y9, (R8)(Y2*8), Y3 // props[id], Identity where dead
	VPXOR    Y15, Y3, Y3
	VPCMPGTQ Y3, Y0, Y4 // acc > gathered
	VBLENDVPD Y4, Y3, Y0, Y0
	ADDQ $32, R13
	DECQ CX
	JNZ  gated
	JMP  runend

ungated:
	VMOVDQU (R13), Y1
	VPAND   Y14, Y1, Y2
	VMOVDQA Y12, Y3
	VPGATHERQQ Y1, (R8)(Y2*8), Y3
	VPXOR    Y15, Y3, Y3
	VPCMPGTQ Y3, Y0, Y4
	VBLENDVPD Y4, Y3, Y0, Y0
	ADDQ $32, R13
	DECQ CX
	JNZ  ungated

runend:
	// Horizontal min of the four lanes, flipped back into AX.
	VEXTRACTI128 $1, Y0, X1
	VPCMPGTQ  X1, X0, X2
	VBLENDVPD X2, X1, X0, X0
	VPSHUFD   $0x4E, X0, X1
	VPCMPGTQ  X1, X0, X2
	VBLENDVPD X2, X1, X0, X0
	VMOVQ X0, AX
	BTCQ  $63, AX

store:
	CMPQ  BX, R11
	JGE   done // the run reaches hi: it is the chunk's last
	// Interior run: accum[dst] = min(accum[dst], acc), left in AX for the
	// next run's window.
	MOVQ (R10)(DX*8), R12
	CMPQ R12, AX
	CMOVQCS R12, AX
	MOVQ AX, (R10)(DX*8)
	VPSRLQ $1, Y12, Y0

next:
	// The next destination with a vector at BX.
	INCQ DX
	MOVQ 8(DI)(DX*8), R12
	CMPQ R12, BX
	JLE  next
	JMP  run

inplace:
	BTCQ $63, R12
	VMOVQ R12, X11
	VPBROADCASTQ X11, Y11
	VPBROADCASTQ X7, Y7 // the last stored destination
	VPXOR Y8, Y8, Y8

window:
	VMOVDQU (R13), Y1
	VPAND   Y14, Y1, Y2
	TESTQ   R9, R9
	JZ      live
	VPSRLQ  $6, Y2, Y5
	VMOVDQA Y1, Y6
	VPXOR   Y3, Y3, Y3
	VPGATHERQQ Y6, (R9)(Y5*8), Y3
	VPANDN  Y13, Y2, Y4
	VPSLLVQ Y4, Y3, Y3
	VPAND   Y3, Y1, Y1 // the sign is valid∧member

live:
	VPSUBQ   Y10, Y2, Y5
	VPXOR    Y15, Y5, Y5
	VPCMPGTQ Y5, Y11, Y5 // width >ᵤ id − first
	VPAND    Y1, Y5, Y5  // ∧ live
	// Live lanes reading the last store leave the accum gather for Y8.
	VPCMPEQQ Y7, Y2, Y6
	VPAND    Y1, Y6, Y6
	VPOR     Y6, Y8, Y8
	VPANDN   Y5, Y6, Y5
	VMOVDQA  Y12, Y3
	VPGATHERQQ Y1, (R8)(Y2*8), Y3 // props[id]
	VMOVDQA  Y12, Y9
	VPGATHERQQ Y5, (R10)(Y2*8), Y9 // accum[id], Identity outside the window
	VPXOR    Y15, Y3, Y3
	VPXOR    Y15, Y9, Y9
	VPCMPGTQ Y9, Y3, Y4
	VBLENDVPD Y4, Y9, Y3, Y3
	VPCMPGTQ Y3, Y0, Y4
	VBLENDVPD Y4, Y3, Y0, Y0
	ADDQ $32, R13
	DECQ CX
	JNZ  window
	// SI = the value the last run stored (still in AX) if a lane in Y8 read
	// it, Identity otherwise; it joins the run's minimum after the
	// horizontal min, off the vector path.
	MOVQ $-1, SI
	VMOVMSKPD Y8, R12
	TESTQ   R12, R12
	CMOVQNE AX, SI
	VMOVQ DX, X7 // this run is the next one's last store
	VEXTRACTI128 $1, Y0, X1
	VPCMPGTQ  X1, X0, X2
	VBLENDVPD X2, X1, X0, X0
	VPSHUFD   $0x4E, X0, X1
	VPCMPGTQ  X1, X0, X2
	VBLENDVPD X2, X1, X0, X0
	VMOVQ X0, AX
	BTCQ  $63, AX
	CMPQ  SI, AX
	CMOVQCS SI, AX
	JMP  store

done:
	MOVQ DX, last+152(FP)
	MOVQ AX, acc+160(FP)
	VZEROUPPER
	RET
