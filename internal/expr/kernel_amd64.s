//go:build amd64

#include "textflag.h"

// func x86HasAVX2FMA() bool
//
// Feature probe for the block kernel: CPUID.1:ECX must report
// FMA (bit 12), OSXSAVE (bit 27) and AVX (bit 28); XGETBV(0) must show the
// OS saving both SSE and AVX state (XCR0 bits 1 and 2); CPUID.7.0:EBX must
// report AVX2 (bit 5).
TEXT ·x86HasAVX2FMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// Max basic CPUID leaf must reach 7.
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JL   done

	// Leaf 1: FMA | OSXSAVE | AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<12 | 1<<27 | 1<<28), R8
	CMPL R8, $(1<<12 | 1<<27 | 1<<28)
	JNE  done

	// XCR0: OS saves SSE (bit 1) and AVX (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done

	// Leaf 7, subleaf 0: AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   done

	MOVB $1, ret+0(FP)

done:
	RET

// func dot3x4F32AVX(a, b *float32, stride int, pos, neg float32, out *[12]float32) uint16
//
// Register tile: rows a0..a2 (SI, R8, R9) against partners b0..b3 (DI,
// R10, R11, R12), accumulator Y(4i+k) for pair (a_i, b_k). Each step
// loads one YMM of every row (3 + 4 loads) for 12 FMAs; Y12-Y14 hold the
// a vectors and Y15 the current b vector. 8 lanes per vector, float32
// accumulation (see recheckBand32); stride > 0 is a multiple of 8, so
// there is no scalar tail. Each row's four accumulators reduce with two
// hadds and one 128-bit add; the compares set bit 4i+k of the mask iff
// r ≥ pos (GE_OQ) or r ≤ −neg (LE_OQ), so NaN sets none.
TEXT ·dot3x4F32AVX(SB), NOSPLIT, $0-42
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ stride+16(FP), CX
	SHLQ $2, CX
	LEAQ (SI)(CX*1), R8
	LEAQ (R8)(CX*1), R9
	LEAQ (DI)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	LEAQ (R11)(CX*1), R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	XORQ   AX, AX

loop32:
	VMOVUPS     (SI)(AX*1), Y12
	VMOVUPS     (R8)(AX*1), Y13
	VMOVUPS     (R9)(AX*1), Y14
	VMOVUPS     (DI)(AX*1), Y15
	VFMADD231PS Y15, Y12, Y0
	VFMADD231PS Y15, Y13, Y4
	VFMADD231PS Y15, Y14, Y8
	VMOVUPS     (R10)(AX*1), Y15
	VFMADD231PS Y15, Y12, Y1
	VFMADD231PS Y15, Y13, Y5
	VFMADD231PS Y15, Y14, Y9
	VMOVUPS     (R11)(AX*1), Y15
	VFMADD231PS Y15, Y12, Y2
	VFMADD231PS Y15, Y13, Y6
	VFMADD231PS Y15, Y14, Y10
	VMOVUPS     (R12)(AX*1), Y15
	VFMADD231PS Y15, Y12, Y3
	VFMADD231PS Y15, Y13, Y7
	VFMADD231PS Y15, Y14, Y11
	ADDQ        $32, AX
	CMPQ        AX, CX
	JLT         loop32

	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      Y5, Y4, Y4
	VHADDPS      Y7, Y6, Y6
	VHADDPS      Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS       X5, X4, X4
	VHADDPS      Y9, Y8, Y8
	VHADDPS      Y11, Y10, Y10
	VHADDPS      Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VADDPS       X9, X8, X8

	MOVQ    out+32(FP), DX
	VMOVUPS X0, (DX)
	VMOVUPS X4, 16(DX)
	VMOVUPS X8, 32(DX)

	VBROADCASTSS pos+24(FP), X12
	VBROADCASTSS neg+28(FP), X13
	VXORPS       X14, X14, X14
	VSUBPS       X13, X14, X13
	VCMPPS       $0x1D, X12, X0, X1
	VCMPPS       $0x12, X13, X0, X2
	VORPS        X2, X1, X1
	VMOVMSKPS    X1, AX
	VCMPPS       $0x1D, X12, X4, X5
	VCMPPS       $0x12, X13, X4, X6
	VORPS        X6, X5, X5
	VMOVMSKPS    X5, BX
	VCMPPS       $0x1D, X12, X8, X9
	VCMPPS       $0x12, X13, X8, X10
	VORPS        X10, X9, X9
	VMOVMSKPS    X9, DX
	SHLL         $4, BX
	SHLL         $8, DX
	ORL          BX, AX
	ORL          DX, AX
	MOVW         AX, ret+40(FP)
	VZEROUPPER
	RET
