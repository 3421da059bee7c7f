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
