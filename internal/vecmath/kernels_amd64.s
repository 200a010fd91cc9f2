//go:build amd64 && !purego

#include "textflag.h"

// SIMD implementations of the hot kernels. Bitwise contract: every kernel
// reproduces the scalar reference reduction (kernels.go) EXACTLY —
//
//   - one 16-dim block = 4 accumulator lanes over stride-4 terms; the four
//     lanes live in one 256-bit register, so lane L accumulates terms
//     L, L+4, L+8, L+12 in the same order as the scalar s0..s3;
//   - lanes start at +0.0 and are combined as (s0+s1)+(s2+s3);
//   - block subtotals and tail terms are added left to right into a scalar
//     accumulator that also starts at +0.0 (0+x matters for -0.0 inputs,
//     so accumulators are always zeroed and added to, never seeded with
//     the first term);
//   - float32 operands are widened to float64 before arithmetic
//     (VCVTPS2PD is exact) and no FMA is ever used: separate VMULPD/VADDPD
//     round exactly like the scalar '*' and '+'.
//
// FuzzKernelsMatchReference and TestKernelTailsMatchScalar gate all of
// this bit for bit against the scalar reference.

// REDUCEBLOCK folds a 4-lane block accumulator Yacc = [s0 s1 s2 s3] into
// the running scalar total Xtot as total += (s0+s1)+(s2+s3). Xlo must be
// the low xmm half of Yacc; Xhi and Xtmp are scratch.
#define REDUCEBLOCK(Yacc, Xlo, Xhi, Xtmp, Xtot) \
	VEXTRACTF128 $1, Yacc, Xhi  \ // Xhi = [s2 s3]
	VPERMILPD    $1, Xlo, Xtmp  \ // Xtmp = [s1 s0]
	VADDSD       Xtmp, Xlo, Xlo \ // Xlo.lo = s0+s1
	VPERMILPD    $1, Xhi, Xtmp  \
	VADDSD       Xtmp, Xhi, Xhi \ // Xhi.lo = s2+s3
	VADDSD       Xhi, Xlo, Xlo  \ // (s0+s1)+(s2+s3)
	VADDSD       Xlo, Xtot, Xtot

// SQL2BLOCK4 adds one stride-4 term group of a squared-L2 block at byte
// offset ofs from a_ptr/b_ptr (indexed by idx*4) into Yacc.
#define SQL2BLOCK4(ofs, a_ptr, b_ptr, idx, Yacc) \
	VCVTPS2PD ofs(a_ptr)(idx*4), Y1 \
	VCVTPS2PD ofs(b_ptr)(idx*4), Y2 \
	VSUBPD    Y2, Y1, Y1            \
	VMULPD    Y1, Y1, Y1            \
	VADDPD    Y1, Yacc, Yacc

// DOTBLOCK4 adds one stride-4 term group of a dot block into Yacc.
#define DOTBLOCK4(ofs, a_ptr, b_ptr, idx, Yacc) \
	VCVTPS2PD ofs(a_ptr)(idx*4), Y1 \
	VCVTPS2PD ofs(b_ptr)(idx*4), Y2 \
	VMULPD    Y2, Y1, Y1            \
	VADDPD    Y1, Yacc, Yacc

// func squaredL2AVX2(a, b []float32) float64
TEXT ·squaredL2AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	VXORPD X9, X9, X9      // total
	XORQ   AX, AX          // i
	MOVQ   CX, DX
	ANDQ   $-16, DX        // full-block limit

l2blocks:
	CMPQ   AX, DX
	JGE    l2tail
	VXORPD Y0, Y0, Y0
	SQL2BLOCK4(0, SI, DI, AX, Y0)
	SQL2BLOCK4(16, SI, DI, AX, Y0)
	SQL2BLOCK4(32, SI, DI, AX, Y0)
	SQL2BLOCK4(48, SI, DI, AX, Y0)
	REDUCEBLOCK(Y0, X0, X1, X2, X9)
	ADDQ   $16, AX
	JMP    l2blocks

l2tail:
	CMPQ   AX, CX
	JGE    l2done
	VXORPD X4, X4, X4      // tail accumulator
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6

l2tailloop:
	VCVTSS2SD (SI)(AX*4), X5, X5
	VCVTSS2SD (DI)(AX*4), X6, X6
	VSUBSD    X6, X5, X7
	VMULSD    X7, X7, X7
	VADDSD    X7, X4, X4
	INCQ      AX
	CMPQ      AX, CX
	JL        l2tailloop
	VADDSD    X4, X9, X9   // total += tail

l2done:
	VMOVSD     X9, ret+48(FP)
	VZEROUPPER
	RET

// func dotAVX2(a, b []float32) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	VXORPD X9, X9, X9
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX

dotblocks:
	CMPQ   AX, DX
	JGE    dottail
	VXORPD Y0, Y0, Y0
	DOTBLOCK4(0, SI, DI, AX, Y0)
	DOTBLOCK4(16, SI, DI, AX, Y0)
	DOTBLOCK4(32, SI, DI, AX, Y0)
	DOTBLOCK4(48, SI, DI, AX, Y0)
	REDUCEBLOCK(Y0, X0, X1, X2, X9)
	ADDQ   $16, AX
	JMP    dotblocks

dottail:
	CMPQ   AX, CX
	JGE    dotdone
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6

dottailloop:
	VCVTSS2SD (SI)(AX*4), X5, X5
	VCVTSS2SD (DI)(AX*4), X6, X6
	VMULSD    X6, X5, X7
	VADDSD    X7, X4, X4
	INCQ      AX
	CMPQ      AX, CX
	JL        dottailloop
	VADDSD    X4, X9, X9

dotdone:
	VMOVSD     X9, ret+48(FP)
	VZEROUPPER
	RET

// func blockSumAVX2(terms []float64) float64
//
// Full 16-term block: 4-lane strided sum with zero-seeded lanes, combined
// (s0+s1)+(s2+s3). Any other length: plain left-to-right sum, exactly like
// scalarBlockSum.
TEXT ·blockSumAVX2(SB), NOSPLIT, $0-32
	MOVQ   terms_base+0(FP), SI
	MOVQ   terms_len+8(FP), CX
	CMPQ   CX, $16
	JNE    bsgeneric
	VXORPD Y0, Y0, Y0
	VADDPD (SI), Y0, Y0
	VADDPD 32(SI), Y0, Y0
	VADDPD 64(SI), Y0, Y0
	VADDPD 96(SI), Y0, Y0
	VXORPD X9, X9, X9
	REDUCEBLOCK(Y0, X0, X1, X2, X9)
	VMOVSD     X9, ret+24(FP)
	VZEROUPPER
	RET

bsgeneric:
	VXORPD X0, X0, X0
	TESTQ  CX, CX
	JZ     bsdone

bsloop:
	VADDSD (SI), X0, X0
	ADDQ   $8, SI
	DECQ   CX
	JNZ    bsloop

bsdone:
	VMOVSD X0, ret+24(FP)
	RET

// func blockSumsTotalAVX2(contrib, blockSums []float64, firstBlk, lastBlk int) float64
//
// Refreshes blockSums[firstBlk..lastBlk] from contrib (full blocks via the
// 4-lane SIMD reduction, the final partial block left to right), then
// returns the left-to-right total over ALL of blockSums. Geometry has been
// validated by the Go wrapper.
TEXT ·blockSumsTotalAVX2(SB), NOSPLIT, $0-72
	MOVQ contrib_base+0(FP), SI
	MOVQ contrib_len+8(FP), CX   // dim
	MOVQ blockSums_base+24(FP), DI
	MOVQ blockSums_len+32(FP), DX // nblk
	MOVQ firstBlk+48(FP), AX      // k
	MOVQ lastBlk+56(FP), BX

bstrefresh:
	CMPQ AX, BX
	JGT  bsttotal
	MOVQ AX, R8
	SHLQ $4, R8            // first dim of block k
	MOVQ CX, R9
	SUBQ R8, R9            // dims remaining from block start
	LEAQ (SI)(R8*8), R10
	CMPQ R9, $16
	JLT  bstpartial
	VXORPD Y0, Y0, Y0
	VADDPD (R10), Y0, Y0
	VADDPD 32(R10), Y0, Y0
	VADDPD 64(R10), Y0, Y0
	VADDPD 96(R10), Y0, Y0
	VXORPD X9, X9, X9
	REDUCEBLOCK(Y0, X0, X1, X2, X9)
	VMOVSD X9, (DI)(AX*8)
	INCQ   AX
	JMP    bstrefresh

bstpartial:
	VXORPD X0, X0, X0
	TESTQ  R9, R9
	JZ     bstpstore

bstploop:
	VADDSD (R10), X0, X0
	ADDQ   $8, R10
	DECQ   R9
	JNZ    bstploop

bstpstore:
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    bstrefresh

bsttotal:
	VXORPD X0, X0, X0
	XORQ   AX, AX
	TESTQ  DX, DX
	JZ     bsttdone

bsttloop:
	VADDSD (DI)(AX*8), X0, X0
	ADDQ   $1, AX
	CMPQ   AX, DX
	JL     bsttloop

bsttdone:
	VMOVSD     X0, ret+64(FP)
	VZEROUPPER
	RET

// func prefetchT0(v []float32, lines int)
//
// Asks for the first `lines` 64 B lines of v, never past its end: a hint,
// no architectural effect, no fault on any address.
TEXT ·prefetchT0(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ lines+24(FP), DX
	LEAQ (SI)(CX*4), DI    // end of the row

pfloop:
	CMPQ  SI, DI
	JAE   pfdone
	TESTQ DX, DX
	JLE   pfdone
	PREFETCHT0 (SI)
	ADDQ  $64, SI
	DECQ  DX
	JMP   pfloop

pfdone:
	RET
