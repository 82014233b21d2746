//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 requires: CPUID max leaf >= 7, CPUID.1:ECX OSXSAVE(27)+AVX(28),
// XCR0 XMM(1)+YMM(2) enabled by the OS, and CPUID.(7,0):EBX AVX2(5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// max basic leaf must reach 7
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JL   done

	// OSXSAVE and AVX in CPUID.1:ECX
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, DX
	ANDL $(1<<27 | 1<<28), DX
	CMPL DX, $(1<<27 | 1<<28)
	JNE  done

	// OS must enable XMM and YMM state in XCR0
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done

	// AVX2 in CPUID.(7,0):EBX
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   done
	MOVB $1, ret+0(FP)

done:
	RET

// func mulSpan4SSE2(cs, b0, b1, b2, b3 []float64, av0, av1, av2, av3 float64)
//
// cs[j] += av0*b0[j]; cs[j] += av1*b1[j]; cs[j] += av2*b2[j];
// cs[j] += av3*b3[j] — separate MULPD and ADDPD per step (two
// roundings, ascending depth order), two columns per vector. Each
// step's operand order is the compiled Go loop's: b is the first
// source of the multiply and the product the first source of the add,
// so colliding NaN payloads resolve as in mulStrip. The running sum
// alternates between two registers to keep the product first without
// a move.
TEXT ·mulSpan4SSE2(SB), NOSPLIT, $0-152
	MOVQ cs_base+0(FP), DI
	MOVQ cs_len+8(FP), CX
	MOVQ b0_base+24(FP), SI
	MOVQ b1_base+48(FP), R8
	MOVQ b2_base+72(FP), R9
	MOVQ b3_base+96(FP), R10

	// broadcast the four multipliers into both lanes
	MOVSD    av0+120(FP), X0
	UNPCKLPD X0, X0
	MOVSD    av1+128(FP), X1
	UNPCKLPD X1, X1
	MOVSD    av2+136(FP), X2
	UNPCKLPD X2, X2
	MOVSD    av3+144(FP), X3
	UNPCKLPD X3, X3

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

sse_loop4:
	CMPQ   AX, DX
	JGE    sse_tail2
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MOVUPD (SI)(AX*8), X6
	MULPD  X0, X6
	ADDPD  X4, X6
	MOVUPD 16(SI)(AX*8), X7
	MULPD  X0, X7
	ADDPD  X5, X7
	MOVUPD (R8)(AX*8), X4
	MULPD  X1, X4
	ADDPD  X6, X4
	MOVUPD 16(R8)(AX*8), X5
	MULPD  X1, X5
	ADDPD  X7, X5
	MOVUPD (R9)(AX*8), X6
	MULPD  X2, X6
	ADDPD  X4, X6
	MOVUPD 16(R9)(AX*8), X7
	MULPD  X2, X7
	ADDPD  X5, X7
	MOVUPD (R10)(AX*8), X4
	MULPD  X3, X4
	ADDPD  X6, X4
	MOVUPD 16(R10)(AX*8), X5
	MULPD  X3, X5
	ADDPD  X7, X5
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    sse_loop4

sse_tail2:
	MOVQ   CX, DX
	ANDQ   $-2, DX
	CMPQ   AX, DX
	JGE    sse_tail1
	MOVUPD (DI)(AX*8), X4
	MOVUPD (SI)(AX*8), X6
	MULPD  X0, X6
	ADDPD  X4, X6
	MOVUPD (R8)(AX*8), X4
	MULPD  X1, X4
	ADDPD  X6, X4
	MOVUPD (R9)(AX*8), X6
	MULPD  X2, X6
	ADDPD  X4, X6
	MOVUPD (R10)(AX*8), X4
	MULPD  X3, X4
	ADDPD  X6, X4
	MOVUPD X4, (DI)(AX*8)
	ADDQ   $2, AX

sse_tail1:
	CMPQ  AX, CX
	JGE   sse_done
	MOVSD (DI)(AX*8), X4
	MOVSD (SI)(AX*8), X6
	MULSD X0, X6
	ADDSD X4, X6
	MOVSD (R8)(AX*8), X4
	MULSD X1, X4
	ADDSD X6, X4
	MOVSD (R9)(AX*8), X6
	MULSD X2, X6
	ADDSD X4, X6
	MOVSD (R10)(AX*8), X4
	MULSD X3, X4
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)
	ADDQ  $1, AX
	JMP   sse_tail1

sse_done:
	RET

// func mulSpan4AVX2(cs, b0, b1, b2, b3 []float64, av0, av1, av2, av3 float64)
//
// Same operation sequence and operand order as mulSpan4SSE2 (separate
// VMULPD and VADDPD per step, never FMA; b then the product as first
// sources), four columns per vector, eight per iteration.
TEXT ·mulSpan4AVX2(SB), NOSPLIT, $0-152
	MOVQ cs_base+0(FP), DI
	MOVQ cs_len+8(FP), CX
	MOVQ b0_base+24(FP), SI
	MOVQ b1_base+48(FP), R8
	MOVQ b2_base+72(FP), R9
	MOVQ b3_base+96(FP), R10

	VBROADCASTSD av0+120(FP), Y0
	VBROADCASTSD av1+128(FP), Y1
	VBROADCASTSD av2+136(FP), Y2
	VBROADCASTSD av3+144(FP), Y3

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

avx_loop8:
	CMPQ    AX, DX
	JGE     avx_tail4
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD (SI)(AX*8), Y6
	VMOVUPD 32(SI)(AX*8), Y7
	VMULPD  Y0, Y6, Y6
	VMULPD  Y0, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5
	VMOVUPD (R8)(AX*8), Y6
	VMOVUPD 32(R8)(AX*8), Y7
	VMULPD  Y1, Y6, Y6
	VMULPD  Y1, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5
	VMOVUPD (R9)(AX*8), Y6
	VMOVUPD 32(R9)(AX*8), Y7
	VMULPD  Y2, Y6, Y6
	VMULPD  Y2, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5
	VMOVUPD (R10)(AX*8), Y6
	VMOVUPD 32(R10)(AX*8), Y7
	VMULPD  Y3, Y6, Y6
	VMULPD  Y3, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     avx_loop8

avx_tail4:
	MOVQ    CX, DX
	ANDQ    $-4, DX
	CMPQ    AX, DX
	JGE     avx_scalar
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y6
	VMULPD  Y0, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD (R8)(AX*8), Y6
	VMULPD  Y1, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD (R9)(AX*8), Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD (R10)(AX*8), Y6
	VMULPD  Y3, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

avx_scalar:
	VZEROUPPER

avx_tail1:
	CMPQ  AX, CX
	JGE   avx_done
	MOVSD (DI)(AX*8), X4
	MOVSD (SI)(AX*8), X6
	MULSD X0, X6
	ADDSD X4, X6
	MOVSD (R8)(AX*8), X4
	MULSD X1, X4
	ADDSD X6, X4
	MOVSD (R9)(AX*8), X6
	MULSD X2, X6
	ADDSD X4, X6
	MOVSD (R10)(AX*8), X4
	MULSD X3, X4
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)
	ADDQ  $1, AX
	JMP   avx_tail1

avx_done:
	RET

// func mulTile4x8AVX2(c, a, b []float64, m, k, depth, strips int)
//
// The 4×8 register tile. c starts at element (i, jj) of the output, a
// at (i, ll) and b at (ll, jj); c and b have row stride m, a has row
// stride k. For each of strips consecutive 8-column strips it loads
// the 4×8 block of c into eight accumulators (Y0–Y7), then for every
// depth step l in [0, depth) broadcasts a[r, l] for the four rows,
// reads the two b vectors of row l in place and does one VMULPD and
// one VADDPD per accumulator — b then the product as first sources,
// the operand order of mulSpan4 — before storing the block back. Each
// output element therefore sees the scalar loop's exact operation
// sequence; only the interleaving across elements changes. The caller
// guarantees no a value in the 4×depth block is zero.
TEXT ·mulTile4x8AVX2(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ m+72(FP), DX
	MOVQ k+80(FP), R11
	MOVQ depth+88(FP), CX
	MOVQ strips+96(FP), R12
	SHLQ $3, DX  // row stride of c and b, bytes
	SHLQ $3, R11 // row stride of a, bytes

	// one pointer per row of a
	LEAQ (SI)(R11*1), R8
	LEAQ (R8)(R11*1), R9
	LEAQ (R9)(R11*1), R10

tile_strip:
	LEAQ    (DI)(DX*2), R13
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(DX*1), Y2
	VMOVUPD 32(DI)(DX*1), Y3
	VMOVUPD (R13), Y4
	VMOVUPD 32(R13), Y5
	VMOVUPD (R13)(DX*1), Y6
	VMOVUPD 32(R13)(DX*1), Y7
	MOVQ    BX, R11
	XORQ    AX, AX

tile_depth:
	VMOVUPD      (R11), Y8
	VMOVUPD      32(R11), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VBROADCASTSD (R8)(AX*8), Y11
	VMULPD       Y10, Y8, Y14
	VMULPD       Y10, Y9, Y15
	VADDPD       Y0, Y14, Y0
	VADDPD       Y1, Y15, Y1
	VMULPD       Y11, Y8, Y14
	VMULPD       Y11, Y9, Y15
	VADDPD       Y2, Y14, Y2
	VADDPD       Y3, Y15, Y3
	VBROADCASTSD (R9)(AX*8), Y12
	VBROADCASTSD (R10)(AX*8), Y13
	VMULPD       Y12, Y8, Y14
	VMULPD       Y12, Y9, Y15
	VADDPD       Y4, Y14, Y4
	VADDPD       Y5, Y15, Y5
	VMULPD       Y13, Y8, Y14
	VMULPD       Y13, Y9, Y15
	VADDPD       Y6, Y14, Y6
	VADDPD       Y7, Y15, Y7
	ADDQ         DX, R11
	INCQ         AX
	CMPQ         AX, CX
	JLT          tile_depth

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, 32(DI)(DX*1)
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, (R13)(DX*1)
	VMOVUPD Y7, 32(R13)(DX*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	DECQ    R12
	JNZ     tile_strip

	VZEROUPPER
	RET
