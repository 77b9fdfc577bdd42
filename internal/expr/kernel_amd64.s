//go:build amd64

#include "textflag.h"

// func x86HasAVX2FMA() bool: CPUID.1:ECX reports FMA (bit 12), OSXSAVE (27)
// and AVX (28), XGETBV(0) shows the OS saving SSE and AVX state (XCR0 bits
// 1, 2), and CPUID.7.0:EBX reports AVX2 (bit 5).
TEXT ·x86HasAVX2FMA(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JL    done
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<12 | 1<<27 | 1<<28), CX
	CMPL  CX, $(1<<12 | 1<<27 | 1<<28)
	JNE   done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<5), BX
	JZ    done
	MOVB  $1, ret+0(FP)
done:
	RET

// func kernel6x16AVX(a0, a1, a2, a3, a4, a5, b *float32, n int, pos, mneg float32) (lo, hi uint64)
// Rows a0-a5 (SI, R8-R12) × panel b (DI), n ≥ 1; Y(2i), Y(2i+1) = row i × genes 0-7, 8-15.
// Lane masks r ≥ pos (GE_OQ) | r ≤ mneg (LE_OQ), NaN none; rows 2j, 2j+1 pack to bytes,
// VPERMD by dwords 0,4,1,5,2,6,3,7 undoes the packs' lane interleave; VPMOVMSKB: bit 16i+c.
TEXT ·kernel6x16AVX(SB), NOSPLIT, $0-88
	MOVQ   a0+0(FP), SI
	MOVQ   a1+8(FP), R8
	MOVQ   a2+16(FP), R9
	MOVQ   a3+24(FP), R10
	MOVQ   a4+32(FP), R11
	MOVQ   a5+40(FP), R12
	MOVQ   b+48(FP), DI
	MOVQ   n+56(FP), CX
	SHLQ   $6, CX
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

loop:
	VMOVUPS      (DI)(AX*1), Y12
	VMOVUPS      32(DI)(AX*1), Y13
	VBROADCASTSS (SI)(AX*1), Y14
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1
	VBROADCASTSS (R8)(AX*1), Y15
	VFMADD231PS  Y12, Y15, Y2
	VFMADD231PS  Y13, Y15, Y3
	VBROADCASTSS (R9)(AX*1), Y14
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5
	VBROADCASTSS (R10)(AX*1), Y15
	VFMADD231PS  Y12, Y15, Y6
	VFMADD231PS  Y13, Y15, Y7
	VBROADCASTSS (R11)(AX*1), Y14
	VFMADD231PS  Y12, Y14, Y8
	VFMADD231PS  Y13, Y14, Y9
	VBROADCASTSS (R12)(AX*1), Y15
	VFMADD231PS  Y12, Y15, Y10
	VFMADD231PS  Y13, Y15, Y11
	ADDQ         $64, AX
	CMPQ         AX, CX
	JLT          loop
	VBROADCASTSS pos+64(FP), Y12
	VBROADCASTSS mneg+68(FP), Y13
	VCMPPS       $0x1D, Y12, Y0, Y14
	VCMPPS       $0x12, Y13, Y0, Y0
	VORPS        Y14, Y0, Y0
	VCMPPS       $0x1D, Y12, Y1, Y14
	VCMPPS       $0x12, Y13, Y1, Y1
	VORPS        Y14, Y1, Y1
	VCMPPS       $0x1D, Y12, Y2, Y14
	VCMPPS       $0x12, Y13, Y2, Y2
	VORPS        Y14, Y2, Y2
	VCMPPS       $0x1D, Y12, Y3, Y14
	VCMPPS       $0x12, Y13, Y3, Y3
	VORPS        Y14, Y3, Y3
	VCMPPS       $0x1D, Y12, Y4, Y14
	VCMPPS       $0x12, Y13, Y4, Y4
	VORPS        Y14, Y4, Y4
	VCMPPS       $0x1D, Y12, Y5, Y14
	VCMPPS       $0x12, Y13, Y5, Y5
	VORPS        Y14, Y5, Y5
	VCMPPS       $0x1D, Y12, Y6, Y14
	VCMPPS       $0x12, Y13, Y6, Y6
	VORPS        Y14, Y6, Y6
	VCMPPS       $0x1D, Y12, Y7, Y14
	VCMPPS       $0x12, Y13, Y7, Y7
	VORPS        Y14, Y7, Y7
	VCMPPS       $0x1D, Y12, Y8, Y14
	VCMPPS       $0x12, Y13, Y8, Y8
	VORPS        Y14, Y8, Y8
	VCMPPS       $0x1D, Y12, Y9, Y14
	VCMPPS       $0x12, Y13, Y9, Y9
	VORPS        Y14, Y9, Y9
	VCMPPS       $0x1D, Y12, Y10, Y14
	VCMPPS       $0x12, Y13, Y10, Y10
	VORPS        Y14, Y10, Y10
	VCMPPS       $0x1D, Y12, Y11, Y14
	VCMPPS       $0x12, Y13, Y11, Y11
	VORPS        Y14, Y11, Y11
	MOVQ         $0x0703060205010400, DX
	VMOVQ        DX, X15
	VPMOVZXBD    X15, Y15
	VPACKSSDW    Y1, Y0, Y0
	VPACKSSDW    Y3, Y2, Y2
	VPACKSSWB    Y2, Y0, Y0
	VPERMD       Y0, Y15, Y0
	VPMOVMSKB    Y0, AX
	VPACKSSDW    Y5, Y4, Y4
	VPACKSSDW    Y7, Y6, Y6
	VPACKSSWB    Y6, Y4, Y4
	VPERMD       Y4, Y15, Y4
	VPMOVMSKB    Y4, BX
	VPACKSSDW    Y9, Y8, Y8
	VPACKSSDW    Y11, Y10, Y10
	VPACKSSWB    Y10, Y8, Y8
	VPERMD       Y8, Y15, Y8
	VPMOVMSKB    Y8, DX
	SHLQ         $32, BX
	ORQ          BX, AX
	MOVQ         AX, lo+72(FP)
	MOVQ         DX, hi+80(FP)
	VZEROUPPER
	RET
