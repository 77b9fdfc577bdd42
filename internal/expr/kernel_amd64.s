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

// func x86HasAVX512F() bool: CPUID.1:ECX reports OSXSAVE (bit 27), XGETBV(0)
// shows the OS saving SSE, AVX, opmask and both halves of the ZMM state
// (XCR0 bits 1, 2, 5, 6, 7), and CPUID.7.0:EBX reports AVX512F (bit 16).
TEXT ·x86HasAVX512F(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JL    done
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<27), CX
	JZ    done
	XORL  CX, CX
	XGETBV
	ANDL  $0xe6, AX
	CMPL  AX, $0xe6
	JNE   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<16), BX
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

// func kernel6x32AVX512(a0, a1, a2, a3, a4, a5, b *float32, n int, pos, mneg float32) (lo0, hi0, lo1, hi1 uint64)
// Rows a0-a5 (SI, R8-R12) × the panels at b (DI) and b + 64n (DX), n ≥ 1; Z(2i), Z(2i+1) =
// row i × panel 0, panel 1. Each lane is the AVX2 kernel's FMA chain, so the coefficients
// are equal bit for bit. Lane masks r ≥ pos (GE_OQ) | r ≤ mneg (LE_OQ) go to K1; KMOVW
// moves row i's 16 bits to bit 16(i mod 4) of lo (rows 0-3) or hi (rows 4-5) of its panel.
TEXT ·kernel6x32AVX512(SB), NOSPLIT, $0-104
	MOVQ   a0+0(FP), SI
	MOVQ   a1+8(FP), R8
	MOVQ   a2+16(FP), R9
	MOVQ   a3+24(FP), R10
	MOVQ   a4+32(FP), R11
	MOVQ   a5+40(FP), R12
	MOVQ   b+48(FP), DI
	MOVQ   n+56(FP), CX
	SHLQ   $6, CX
	LEAQ   (DI)(CX*1), DX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	XORQ   AX, AX

loop512:
	VMOVUPS      (DI)(AX*1), Z12
	VMOVUPS      (DX)(AX*1), Z13
	VBROADCASTSS (SI)(AX*1), Z14
	VFMADD231PS  Z12, Z14, Z0
	VFMADD231PS  Z13, Z14, Z1
	VBROADCASTSS (R8)(AX*1), Z15
	VFMADD231PS  Z12, Z15, Z2
	VFMADD231PS  Z13, Z15, Z3
	VBROADCASTSS (R9)(AX*1), Z14
	VFMADD231PS  Z12, Z14, Z4
	VFMADD231PS  Z13, Z14, Z5
	VBROADCASTSS (R10)(AX*1), Z15
	VFMADD231PS  Z12, Z15, Z6
	VFMADD231PS  Z13, Z15, Z7
	VBROADCASTSS (R11)(AX*1), Z14
	VFMADD231PS  Z12, Z14, Z8
	VFMADD231PS  Z13, Z14, Z9
	VBROADCASTSS (R12)(AX*1), Z15
	VFMADD231PS  Z12, Z15, Z10
	VFMADD231PS  Z13, Z15, Z11
	ADDQ         $64, AX
	CMPQ         AX, CX
	JLT          loop512
	VBROADCASTSS pos+64(FP), Z12
	VBROADCASTSS mneg+68(FP), Z13
	VCMPPS       $0x1D, Z12, Z0, K1
	VCMPPS       $0x12, Z13, Z0, K2
	KORW         K1, K2, K1
	KMOVW        K1, BX
	VCMPPS       $0x1D, Z12, Z2, K1
	VCMPPS       $0x12, Z13, Z2, K2
	KORW         K1, K2, K1
	KMOVW        K1, AX
	SHLQ         $16, AX
	ORQ          AX, BX
	VCMPPS       $0x1D, Z12, Z4, K1
	VCMPPS       $0x12, Z13, Z4, K2
	KORW         K1, K2, K1
	KMOVW        K1, AX
	SHLQ         $32, AX
	ORQ          AX, BX
	VCMPPS       $0x1D, Z12, Z6, K1
	VCMPPS       $0x12, Z13, Z6, K2
	KORW         K1, K2, K1
	KMOVW        K1, AX
	SHLQ         $48, AX
	ORQ          AX, BX
	VCMPPS       $0x1D, Z12, Z8, K1
	VCMPPS       $0x12, Z13, Z8, K2
	KORW         K1, K2, K1
	KMOVW        K1, SI
	VCMPPS       $0x1D, Z12, Z10, K1
	VCMPPS       $0x12, Z13, Z10, K2
	KORW         K1, K2, K1
	KMOVW        K1, AX
	SHLQ         $16, AX
	ORQ          AX, SI
	VCMPPS       $0x1D, Z12, Z1, K1
	VCMPPS       $0x12, Z13, Z1, K2
	KORW         K1, K2, K1
	KMOVW        K1, R8
	VCMPPS       $0x1D, Z12, Z3, K1
	VCMPPS       $0x12, Z13, Z3, K2
	KORW         K1, K2, K1
	KMOVW        K1, AX
	SHLQ         $16, AX
	ORQ          AX, R8
	VCMPPS       $0x1D, Z12, Z5, K1
	VCMPPS       $0x12, Z13, Z5, K2
	KORW         K1, K2, K1
	KMOVW        K1, AX
	SHLQ         $32, AX
	ORQ          AX, R8
	VCMPPS       $0x1D, Z12, Z7, K1
	VCMPPS       $0x12, Z13, Z7, K2
	KORW         K1, K2, K1
	KMOVW        K1, AX
	SHLQ         $48, AX
	ORQ          AX, R8
	VCMPPS       $0x1D, Z12, Z9, K1
	VCMPPS       $0x12, Z13, Z9, K2
	KORW         K1, K2, K1
	KMOVW        K1, R9
	VCMPPS       $0x1D, Z12, Z11, K1
	VCMPPS       $0x12, Z13, Z11, K2
	KORW         K1, K2, K1
	KMOVW        K1, AX
	SHLQ         $16, AX
	ORQ          AX, R9
	MOVQ         BX, lo0+72(FP)
	MOVQ         SI, hi0+80(FP)
	MOVQ         R8, lo1+88(FP)
	MOVQ         R9, hi1+96(FP)
	VZEROUPPER
	RET

// func rankCountAVX(x, out *float64, n int)
// x (SI), out (DI), n > 0 a multiple of 4 (CX, in bytes). Per group of 4 queries
// x[i..i+3] (Y0-Y3, BX = 8i): lane sums of x[j] < q (LT_OQ, Y4-Y7) and x[j] == q
// (EQ_OQ, Y8-Y11) over j, as masks (−1) subtracted from zeroed counters. The
// unpack/VPERM2I128 reduction turns Y4-Y7 into [lt0..lt3] and Y8-Y11 into
// [eq0..eq3]; 2lt+eq+1 < 2⁵² is ORed into the mantissa of 2⁵², 2⁵² subtracted,
// and the result halved, all exact.
TEXT ·rankCountAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ BX, BX

group:
	VBROADCASTSD (SI)(BX*1), Y0
	VBROADCASTSD 8(SI)(BX*1), Y1
	VBROADCASTSD 16(SI)(BX*1), Y2
	VBROADCASTSD 24(SI)(BX*1), Y3
	VPXOR        Y4, Y4, Y4
	VPXOR        Y5, Y5, Y5
	VPXOR        Y6, Y6, Y6
	VPXOR        Y7, Y7, Y7
	VPXOR        Y8, Y8, Y8
	VPXOR        Y9, Y9, Y9
	VPXOR        Y10, Y10, Y10
	VPXOR        Y11, Y11, Y11
	XORQ         AX, AX

count:
	VMOVUPD (SI)(AX*1), Y12
	VCMPPD  $0x11, Y0, Y12, Y13
	VCMPPD  $0x00, Y0, Y12, Y14
	VPSUBQ  Y13, Y4, Y4
	VPSUBQ  Y14, Y8, Y8
	VCMPPD  $0x11, Y1, Y12, Y15
	VCMPPD  $0x00, Y1, Y12, Y13
	VPSUBQ  Y15, Y5, Y5
	VPSUBQ  Y13, Y9, Y9
	VCMPPD  $0x11, Y2, Y12, Y14
	VCMPPD  $0x00, Y2, Y12, Y15
	VPSUBQ  Y14, Y6, Y6
	VPSUBQ  Y15, Y10, Y10
	VCMPPD  $0x11, Y3, Y12, Y13
	VCMPPD  $0x00, Y3, Y12, Y14
	VPSUBQ  Y13, Y7, Y7
	VPSUBQ  Y14, Y11, Y11
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     count

	VPUNPCKLQDQ Y5, Y4, Y12
	VPUNPCKHQDQ Y5, Y4, Y13
	VPADDQ      Y13, Y12, Y12
	VPUNPCKLQDQ Y7, Y6, Y13
	VPUNPCKHQDQ Y7, Y6, Y14
	VPADDQ      Y14, Y13, Y13
	VPERM2I128  $0x20, Y13, Y12, Y14
	VPERM2I128  $0x31, Y13, Y12, Y15
	VPADDQ      Y15, Y14, Y4
	VPUNPCKLQDQ Y9, Y8, Y12
	VPUNPCKHQDQ Y9, Y8, Y13
	VPADDQ      Y13, Y12, Y12
	VPUNPCKLQDQ Y11, Y10, Y13
	VPUNPCKHQDQ Y11, Y10, Y14
	VPADDQ      Y14, Y13, Y13
	VPERM2I128  $0x20, Y13, Y12, Y14
	VPERM2I128  $0x31, Y13, Y12, Y15
	VPADDQ      Y15, Y14, Y8
	VPADDQ      Y4, Y4, Y4
	VPADDQ      Y8, Y4, Y4
	VPBROADCASTQ rankOne<>(SB), Y12
	VPADDQ      Y12, Y4, Y4
	VBROADCASTSD rankTwo52<>(SB), Y13
	VPOR        Y13, Y4, Y4
	VSUBPD      Y13, Y4, Y4
	VBROADCASTSD rankHalf<>(SB), Y14
	VMULPD      Y14, Y4, Y4
	VMOVUPD     Y4, (DI)(BX*1)
	ADDQ        $32, BX
	CMPQ        BX, CX
	JLT         group
	VZEROUPPER
	RET

DATA rankOne<>+0(SB)/8, $1
GLOBL rankOne<>(SB), RODATA|NOPTR, $8
DATA rankTwo52<>+0(SB)/8, $0x4330000000000000
GLOBL rankTwo52<>(SB), RODATA|NOPTR, $8
DATA rankHalf<>+0(SB)/8, $0x3fe0000000000000
GLOBL rankHalf<>(SB), RODATA|NOPTR, $8
