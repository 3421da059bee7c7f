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

// The three chunk kernels read Vector-Sparse lanes four at a time as 32-bit
// words, 16 bytes a vector: bit 31 the valid bit, bits 30:0 the source id.
// VPMOVSXDQ sign-extends the four words to quadwords, so each lane's valid
// bit fills its quadword's sign, which is what a gather reads as its mask.
// The dword-index gathers (VGATHERDPD, VPGATHERDQ) take the words themselves
// as their indices, valid bit and all: read as a signed dword, a valid word
// is id − 2^31, so a base biased up by 2^31 elements lands on element id,
// and a dead word is never loaded. Indices derived from a word (its frontier
// word, word>>6 = 2^25 + id>>6) are biased the same way, and the low six bits
// a frontier shift reads are the id's. Only an address the kernel forms
// itself, a scalar accum store or a window gather of accum, uses the id
// masked out of its word.

// func rankSumChunkAVX2(words []uint32, base int, index []int, contrib []float64, weights []float32, accum []uint64, dst, lo, hi int) (last int, acc uint64)
//
// The whole chunk in one call, run by run: per destination run (index[dst+1]
// clipped to hi) a vector loop into the four lane partial sums in Y0, then
// the fold (l0+l1)+(l2+l3), then an interior store or the return. Per
// vector: load the four lane words into an xmm, widen their valid bits into a
// mask, and gather contrib[id] with one VGATHERDPD through the biased base (a
// lane whose valid bit is clear is not loaded and keeps the zero its register
// was cleared to; the gather consumes its mask). The weighted loop multiplies
// by the four float32 lane weights, widened, first; no FMA: the product is
// rounded before it is added, as RankSumChunkGo does it. An interior run is
// stored as accum[dst] = accum[dst] + sum; the run that reaches hi is
// returned. The walk reads exactly the chunk's vectors and 16 bytes of
// weights per vector, never past hi; words and weights start at vector base,
// so vector lo is (lo − base)·16 bytes in.
//
// Registers: SI words, DI index, R8 contrib biased by 2^31 elements, R10
// weights (0: unweighted), R9 accum, DX dst, BX the vector the next run
// starts at, R11 hi, R12 the run's end, R13 the current vector's address, R14
// its weights' address, CX vectors left in the run, AX the returned sum. Y0
// the lane partial sums.
TEXT ·rankSumChunkAVX2(SB), NOSPLIT, $0-168
	MOVQ words_base+0(FP), SI
	MOVQ index_base+32(FP), DI
	MOVQ contrib_base+56(FP), R8
	MOVQ weights_base+80(FP), R10
	MOVQ accum_base+104(FP), R9
	MOVQ dst+128(FP), DX
	MOVQ lo+136(FP), BX
	MOVQ hi+144(FP), R11
	XORQ AX, AX // an empty chunk aggregates to +0
	CMPQ BX, R11
	JGE  sumdone

	MOVQ $0x400000000, AX
	ADDQ AX, R8 // &contrib[2^31]: a valid word indexes contrib[id]
	MOVQ BX, R13
	SUBQ base+24(FP), R13
	SHLQ $4, R13
	MOVQ R13, R14
	ADDQ SI, R13 // &words[(lo−base)*4]
	ADDQ R10, R14 // &weights[(lo−base)*4], read only when weighted

sumrun:
	// The next destination with a vector at BX.
	MOVQ 8(DI)(DX*8), R12
	CMPQ R12, BX
	JG   sumowned
	INCQ DX
	JMP  sumrun

sumowned:
	CMPQ R12, R11
	CMOVQGT R11, R12 // dst's share of the chunk is [BX, R12)
	MOVQ R12, CX
	SUBQ BX, CX
	MOVQ R12, BX
	VPXOR Y0, Y0, Y0 // l0..l3
	TESTQ R10, R10
	JNZ  sumweighted

sumplain:
	VMOVDQU   (R13), X2 // four lane words
	VPMOVSXDQ X2, Y1    // valid bits → quadword signs
	VPXOR     Y4, Y4, Y4
	VGATHERDPD Y1, (R8)(X2*8), Y4 // contrib[id]
	VADDPD    Y4, Y0, Y0
	ADDQ      $16, R13
	DECQ      CX
	JNZ       sumplain
	JMP       sumfold

sumweighted:
	VMOVDQU   (R13), X2
	VPMOVSXDQ X2, Y1
	VPXOR     Y4, Y4, Y4
	VGATHERDPD Y1, (R8)(X2*8), Y4
	VCVTPS2PD (R14), Y6 // four float32 lane weights
	VMULPD    Y6, Y4, Y4
	VADDPD    Y4, Y0, Y0
	ADDQ      $16, R13
	ADDQ      $16, R14
	DECQ      CX
	JNZ       sumweighted

sumfold:
	// (l0+l1)+(l2+l3)
	VEXTRACTF128 $1, Y0, X1
	VHADDPD   X1, X0, X0 // X0 = [l0+l1, l2+l3]
	VPERMILPD $1, X0, X1
	VADDSD    X1, X0, X0
	CMPQ BX, R11
	JGE  sumlast // the run reaches hi: it is the chunk's last
	// Interior run: accum[dst] = accum[dst] + sum.
	VMOVSD (R9)(DX*8), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (R9)(DX*8)
	INCQ DX
	JMP  sumrun

sumlast:
	VMOVQ X0, AX

sumdone:
	MOVQ DX, last+152(FP)
	MOVQ AX, acc+160(FP)
	VZEROUPPER
	RET

// func minPropChunkAVX2(words []uint32, base int, index []int, props, front, accum []uint64, first, dst, lo, hi int, inPlace, skipZero bool) (last int, acc uint64)
//
// The whole chunk in one call: per destination run (index[dst+1] clipped to
// hi) a vector loop, then a horizontal min, then an interior store or the
// return. With skipZero, a run whose destination's props[dst] is 0 is passed
// over before its vectors: R13 steps past them unread, nothing is stored, and
// as the chunk's last run it returns Identity. Per vector, gated: gather the four frontier words front[id>>6]
// under the lanes' valid bits, shift each lane's frontier bit into its sign
// (left by 63−id&63, which is ^word&63 of the word widened with VPMOVZXDQ),
// AND with the valid mask so the sign is valid∧member, and gather props[id]
// under that into an all-ones (Identity) register. Ungated rounds gather
// props under the valid bits directly.
//
// In place, a run whose window [first, dst) is not empty takes the window
// loop instead: after the live mask, the lanes with id − first <ᵤ dst − first
// (the widened words less first + 2^31, a sign-flipped VPCMPGTQ against the
// run's broadcast width; a live word is 2^31 + id) gather accum[id] under
// live∧window into a second all-ones register, and the lane takes the
// unsigned min of the two gathers. The one exception is a lane reading the
// destination the previous run has just stored: gathering it makes the run
// wait for that store to retire, so it is masked out, and the stored value,
// kept in AX, joins the run's minimum after the horizontal min if any live
// lane read it. A call that starts past first (a later slab's share of the
// chunk) has no such store in AX — its caller stored the run before — so
// every window lane gathers accum. Every other run takes the loops above, and
// their runs end exactly as before; a synchronous call sets first so high
// that no window is ever open.
//
// AVX2 has no unsigned 64-bit min, so the lane accumulators in Y0 hold their
// values with bit 63 flipped, where a signed VPCMPGTQ orders them as
// unsigned; a gathered vector is flipped once on its way in and the run's
// minimum flipped back once on its way out.
//
// Registers: SI front biased by 2^25 words (after set-up), DI index, R8
// props biased by 2^31 words, R15 props (0: skipZero clear, no run is
// skipped), R9 front (0: ungated), R10 accum, DX dst, BX the vector the next
// run starts at, R11 hi, R12 the run's end, R13 the current vector's address,
// CX vectors left in the run (after a window run's loop, its fold value), R14
// first (2^63−1 for a synchronous call), AX the run's minimum, then the value
// it stored. Y15 the sign bit, Y14 the id mask (dwords), Y13 63, Y12 all
// ones, Y11 the run's window width with bit 63 flipped, Y10 first + 2^31, X7
// the last stored destination + 2^31 (broadcast to Y7 in a window run), Y8
// the window run's lanes that read it. A skipped run leaves X7 and AX as they
// were, still naming an earlier store, except an in-place call's first run:
// X7 names first before that run stores, so a skip there resets X7 to all
// ones, no store. Left naming first, it would pair first with an AX that
// holds no stored value; only a lane that also gathers props[first] = 0 could
// read it, so it could not lower a minimum, but the pair would still be false.
TEXT ·minPropChunkAVX2(SB), NOSPLIT, $0-184
	MOVQ words_base+0(FP), R13
	MOVQ index_base+32(FP), DI
	MOVQ props_base+56(FP), R8
	MOVQ front_base+80(FP), R9
	MOVQ front_len+88(FP), AX
	TESTQ AX, AX
	CMOVQEQ AX, R9 // an empty frontier slice means ungated
	MOVQ accum_base+104(FP), R10
	MOVQ dst+136(FP), DX
	MOVQ lo+144(FP), BX
	MOVQ hi+152(FP), R11
	MOVQ first+128(FP), R14
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	CMPB inPlace+160(FP), $0
	CMOVQEQ AX, R14 // synchronous: dst − first < 0 for every dst
	MOVQ $-1, AX // an empty chunk aggregates to Identity
	CMPQ BX, R11
	JGE  done

	XORQ R15, R15
	CMPB skipZero+161(FP), $0
	CMOVQNE R8, R15 // props, read at dst once per run
	MOVQ $0x400000000, AX
	ADDQ AX, R8 // &props[2^31]
	MOVQ R9, SI
	SUBQ $0x10000000, SI // &front[−2^25]: word>>6 is 2^25 + id>>6
	MOVL $0x7FFFFFFF, AX
	VMOVD AX, X14
	VPBROADCASTD X14, Y14
	MOVQ $63, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ R14, AX
	BTSQ $31, AX // first + 2^31 (first < 2^31)
	VMOVQ AX, X10
	VPBROADCASTQ X10, Y10
	VMOVQ AX, X7 // an in-place call's first run, first's, is stored first
	VPCMPEQQ Y12, Y12, Y12
	VPSLLQ $63, Y12, Y15
	VPSRLQ $1, Y12, Y0 // flipped Identity

	MOVQ BX, R12
	SUBQ base+24(FP), R12
	SHLQ $4, R12
	ADDQ R12, R13 // &words[(lo−base)*4]
	CMPQ DX, R14
	JEQ  firstrun
	VPCMPEQQ X7, X7, X7 // a later call of the chunk: no store of its own in AX

firstrun:
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
	TESTQ R15, R15
	JZ   walk
	CMPQ (R15)(DX*8), $0
	JEQ  skip // props[dst] = 0: no aggregate can move it

walk:
	MOVQ DX, R12
	SUBQ R14, R12 // the window's width, dst − first
	JG   inplace
	TESTQ R9, R9
	JZ   ungated

gated:
	VMOVDQU   (R13), X2 // four lane words
	VPMOVSXDQ X2, Y1    // valid bits → quadword signs
	VPSRLD    $6, X2, X5 // frontier word of each id
	VMOVDQA   Y1, Y6     // the gather consumes its mask
	VPXOR     Y9, Y9, Y9
	VPGATHERDQ Y6, (SI)(X5*8), Y9
	VPMOVZXDQ X2, Y4
	VPANDN    Y13, Y4, Y4 // 63 − id&63
	VPSLLVQ   Y4, Y9, Y9  // frontier bit → bit 63
	VPAND     Y1, Y9, Y9  // ∧ valid
	VMOVDQA   Y12, Y3
	VPGATHERDQ Y9, (R8)(X2*8), Y3 // props[id], Identity where dead
	VPXOR     Y15, Y3, Y3
	VPCMPGTQ  Y3, Y0, Y4 // acc > gathered
	VBLENDVPD Y4, Y3, Y0, Y0
	ADDQ $16, R13
	DECQ CX
	JNZ  gated
	JMP  runend

ungated:
	VMOVDQU   (R13), X2
	VPMOVSXDQ X2, Y1
	VMOVDQA   Y12, Y3
	VPGATHERDQ Y1, (R8)(X2*8), Y3
	VPXOR     Y15, Y3, Y3
	VPCMPGTQ  Y3, Y0, Y4
	VBLENDVPD Y4, Y3, Y0, Y0
	ADDQ $16, R13
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

skip:
	// The run's vectors, unread; nothing stored, X7 and AX kept.
	SHLQ $4, CX
	ADDQ CX, R13
	MOVQ $-1, CX
	CMPQ BX, R11
	CMOVQGE CX, AX // the chunk's last run returns Identity
	JGE  done
	CMPQ DX, R14
	JNE  next
	VPCMPEQQ X7, X7, X7 // an in-place call's first run stored nothing at first
	JMP  next

inplace:
	BTCQ $63, R12
	VMOVQ R12, X11
	VPBROADCASTQ X11, Y11
	VPBROADCASTQ X7, Y7 // the last stored destination + 2^31
	VPXOR Y8, Y8, Y8

window:
	VMOVDQU   (R13), X2
	VPMOVSXDQ X2, Y1
	VPMOVZXDQ X2, Y3 // 2^31 + id in a live lane
	TESTQ     R9, R9
	JZ        live
	VPSRLD    $6, X2, X5
	VMOVDQA   Y1, Y6
	VPXOR     Y9, Y9, Y9
	VPGATHERDQ Y6, (SI)(X5*8), Y9
	VPANDN    Y13, Y3, Y4
	VPSLLVQ   Y4, Y9, Y9
	VPAND     Y9, Y1, Y1 // the sign is valid∧member

live:
	VPSUBQ   Y10, Y3, Y5 // id − first in a live lane
	VPXOR    Y15, Y5, Y5
	VPCMPGTQ Y5, Y11, Y5 // width >ᵤ id − first
	VPAND    Y1, Y5, Y5  // ∧ live
	// Live lanes reading the last store leave the accum gather for Y8.
	VPCMPEQQ Y7, Y3, Y6
	VPAND    Y1, Y6, Y6
	VPOR     Y6, Y8, Y8
	VPANDN   Y5, Y6, Y5
	VPAND    X14, X2, X6 // ids: accum's base is not biased
	VMOVDQA  Y12, Y3
	VPGATHERDQ Y1, (R8)(X2*8), Y3 // props[id]
	VMOVDQA  Y12, Y9
	VPGATHERDQ Y5, (R10)(X6*8), Y9 // accum[id], Identity outside the window
	VPXOR    Y15, Y3, Y3
	VPXOR    Y15, Y9, Y9
	VPCMPGTQ Y9, Y3, Y4
	VBLENDVPD Y4, Y9, Y3, Y3
	VPCMPGTQ Y3, Y0, Y4
	VBLENDVPD Y4, Y3, Y0, Y0
	ADDQ $16, R13
	DECQ CX
	JNZ  window
	// CX = the value the last run stored (still in AX) if a lane in Y8 read
	// it, Identity otherwise; it joins the run's minimum after the
	// horizontal min, off the vector path.
	MOVQ $-1, CX
	VMOVMSKPD Y8, R12
	TESTQ   R12, R12
	CMOVQNE AX, CX
	MOVQ  DX, R12
	BTSQ  $31, R12
	VMOVQ R12, X7 // this run is the next one's last store
	VEXTRACTI128 $1, Y0, X1
	VPCMPGTQ  X1, X0, X2
	VBLENDVPD X2, X1, X0, X0
	VPSHUFD   $0x4E, X0, X1
	VPCMPGTQ  X1, X0, X2
	VBLENDVPD X2, X1, X0, X0
	VMOVQ X0, AX
	BTCQ  $63, AX
	CMPQ  CX, AX
	CMOVQCS CX, AX
	JMP  store

done:
	MOVQ DX, last+168(FP)
	MOVQ AX, acc+176(FP)
	VZEROUPPER
	RET

// func minSrcChunkAVX2(words []uint32, base int, index []int, front, conv, accum []uint64, dst, lo, hi int) (last int, acc uint64)
//
// The whole chunk in one call, run by run: a run whose destination's conv bit
// is set is passed over without a vector read; any other walks its vectors
// (index[dst+1] clipped to hi) until one has a live lane. Per vector: gather
// the four frontier words front[id>>6] under the lanes' valid bits (a dead
// lane is not loaded and keeps the zero its register was cleared to), shift
// each lane's frontier bit into its sign (left by 63−id&63, which is ^word&63
// of the word widened with VPMOVZXDQ), and take the four signs with
// VMOVMSKPD: the lowest set bit (BSF) is the first live lane, whose id is the
// run's aggregate. The walk then leaves the run for index[dst+1]. An interior
// run is stored as accum[dst] = min(accum[dst], acc); the run that reaches hi
// is returned.
//
// Registers: SI words biased back by base vectors, so that vector BX is at
// SI + 16·BX, DI index, R8 conv, R9 front biased by 2^25 words, R10
// accum, DX dst, BX the vector the run starts at, R11 hi, R12 the run's end
// (index[dst+1], unclipped), R13 the current vector's address, CX vectors
// left in the run (before that, the destination's conv word), R14 the live
// mask, AX the run's aggregate. Y13 63.
TEXT ·minSrcChunkAVX2(SB), NOSPLIT, $0-168
	MOVQ words_base+0(FP), SI
	MOVQ base+24(FP), AX
	SHLQ $4, AX
	SUBQ AX, SI
	MOVQ index_base+32(FP), DI
	MOVQ front_base+56(FP), R9
	MOVQ conv_base+80(FP), R8
	MOVQ accum_base+104(FP), R10
	MOVQ dst+128(FP), DX
	MOVQ lo+136(FP), BX
	MOVQ hi+144(FP), R11
	MOVQ $-1, AX // an empty chunk aggregates to Identity
	CMPQ BX, R11
	JGE  srcdone

	SUBQ $0x10000000, R9 // &front[−2^25]: word>>6 is 2^25 + id>>6
	MOVQ $63, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13

srcrun:
	// The next destination with a vector at BX.
	MOVQ 8(DI)(DX*8), R12
	CMPQ R12, BX
	JG   srcowned
	INCQ DX
	JMP  srcrun

srcowned:
	MOVQ $-1, AX
	MOVQ DX, CX
	SHRQ $6, CX
	MOVQ (R8)(CX*8), CX
	BTQ  DX, CX // CF = conv bit of dst
	JCS  srcend
	MOVQ R12, CX
	CMPQ CX, R11
	CMOVQGT R11, CX
	SUBQ BX, CX // vectors of the run in the chunk
	MOVQ BX, R13
	SHLQ $4, R13
	ADDQ SI, R13 // &words[(BX−base)*4]

srcvec:
	VMOVDQU   (R13), X2 // four lane words
	VPMOVSXDQ X2, Y1    // valid bits → quadword signs
	VPSRLD    $6, X2, X5 // frontier word of each id
	VPXOR     Y3, Y3, Y3
	VPGATHERDQ Y1, (R9)(X5*8), Y3 // the gather consumes its mask, Y1
	VPMOVZXDQ X2, Y4
	VPANDN    Y13, Y4, Y4 // 63 − id&63
	VPSLLVQ   Y4, Y3, Y3  // frontier bit → bit 63
	VMOVMSKPD Y3, R14
	TESTQ     R14, R14
	JNZ       srcfound
	ADDQ      $16, R13
	DECQ      CX
	JNZ       srcvec
	JMP       srcend

srcfound:
	BSFQ R14, R14
	MOVL (R13)(R14*4), AX
	ANDL $0x7FFFFFFF, AX // the lane's 31-bit id, zero-extended

srcend:
	CMPQ R12, R11
	JGE  srcdone // the run reaches hi: it is the chunk's last
	// Interior run: accum[dst] = min(accum[dst], acc).
	MOVQ (R10)(DX*8), CX
	CMPQ CX, AX
	CMOVQCS CX, AX
	MOVQ AX, (R10)(DX*8)
	MOVQ R12, BX
	INCQ DX
	JMP  srcrun

srcdone:
	MOVQ DX, last+152(FP)
	MOVQ AX, acc+160(FP)
	VZEROUPPER
	RET
