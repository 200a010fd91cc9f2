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
//   - float operands (fp32, and fp16/bf16 rows in the typed kernels) are
//     widened to float64 before arithmetic (every widening is exact) and no
//     FMA is ever used: separate VMULPD/VADDPD round exactly like the scalar
//     '*' and '+';
//   - the uint8/int8 row kernels sum in integer arithmetic instead: every
//     partial sum of the reference is an integer far below 2^53, so its
//     float64 adds are exact in any order (rowkernels.go).
//
// FuzzKernelsMatchReference, FuzzTypedKernelsMatchReference and the two
// tail property tests gate all of this bit for bit against the scalar
// reference.

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

// FLOATROWS is the body of every two-row float kernel: with SI and DI at
// the rows and CX the element count it leaves the canonical blocked total in
// X9. What differs per element type is how four elements become four
// float64 lanes (LOAD: group k of the block at element AX, through scratch
// X into Y) and how one tail element becomes a float64 (TAIL); what differs
// per metric is the term (OPPD on Y1, Y2 into Y1; OPSD on X5, X6 into X7).
// Every widening is exact, so the arithmetic that follows is the float32
// reference's on the decoded values.
#define FLOATROWS(LOAD, TAIL, OPPD, OPSD) \
	VXORPD X9, X9, X9              \ // total
	XORQ   AX, AX                  \ // i
	MOVQ   CX, DX                  \
	ANDQ   $-16, DX                \ // full-block limit
blocks:                            \
	CMPQ   AX, DX                  \
	JGE    tail                    \
	VXORPD Y0, Y0, Y0              \
	FLOATGROUP(LOAD, OPPD, 0)      \
	FLOATGROUP(LOAD, OPPD, 1)      \
	FLOATGROUP(LOAD, OPPD, 2)      \
	FLOATGROUP(LOAD, OPPD, 3)      \
	REDUCEBLOCK(Y0, X0, X1, X2, X9) \
	ADDQ   $16, AX                 \
	JMP    blocks                  \
tail:                              \
	CMPQ   AX, CX                  \
	JGE    done                    \
	VXORPD X4, X4, X4              \ // tail accumulator
	VXORPD X5, X5, X5              \
	VXORPD X6, X6, X6              \
tailloop:                          \
	TAIL(SI, X5)                   \
	TAIL(DI, X6)                   \
	OPSD                           \
	VADDSD X7, X4, X4              \
	INCQ   AX                      \
	CMPQ   AX, CX                  \
	JL     tailloop                \
	VADDSD X4, X9, X9              \ // total += tail
done:

// FLOATGROUP adds stride-4 term group k of the current block into Y0.
#define FLOATGROUP(LOAD, OPPD, k) \
	LOAD(k, SI, X1, Y1) \
	LOAD(k, DI, X2, Y2) \
	OPPD                \
	VADDPD Y1, Y0, Y0

#define L2PD \
	VSUBPD Y2, Y1, Y1 \
	VMULPD Y1, Y1, Y1
#define DOTPD VMULPD Y2, Y1, Y1
#define L2SD \
	VSUBSD X6, X5, X7 \
	VMULSD X7, X7, X7
#define DOTSD VMULSD X6, X5, X7

// fp32: VCVTPS2PD widens four floats.
#define LOADF32(k, ptr, X, Y) VCVTPS2PD (k*16)(ptr)(AX*4), Y
#define TAILF32(ptr, X) VCVTSS2SD (ptr)(AX*4), X, X

// fp16: VCVTPH2PS (F16C) widens four halfs to float32 — exactly, subnormals
// included, whatever MXCSR says about denormals — then as fp32.
#define LOADF16(k, ptr, X, Y) \
	VCVTPH2PS (k*8)(ptr)(AX*2), X \
	VCVTPS2PD X, Y
#define TAILF16(ptr, X) \
	MOVWLZX   (ptr)(AX*2), R8 \
	VMOVD     R8, X           \
	VCVTPH2PS X, X            \
	VCVTSS2SD X, X, X

// bf16 is the top half of a float32: zero-extend and shift.
#define LOADBF16(k, ptr, X, Y) \
	VPMOVZXWD (k*8)(ptr)(AX*2), X \
	VPSLLD    $16, X, X           \
	VCVTPS2PD X, Y
#define TAILBF16(ptr, X) \
	MOVWLZX   (ptr)(AX*2), R8 \
	SHLL      $16, R8         \
	VMOVD     R8, X           \
	VCVTSS2SD X, X, X

// intFoldBytes is how many bytes of a row an integer kernel sums in 32-bit
// lanes before it folds them into 64-bit ones: 8192 steps of 16 bytes. A
// lane gains at most 2*255*255 = 130050 a step, so it holds at most
// 1.07e9 < 2^31 when it is folded.
#define intFoldBytes 131072

// INTROWS is the body of the uint8/int8 kernels: with SI and DI at the rows
// and CX the element count it leaves the sum, an int64 converted once, in
// X0. Sixteen elements a step: WIDEN them to 16-bit lanes, STEP turns the
// two registers into eight 32-bit pair sums (VPMADDWD), accumulated in Y0
// and folded into the four 64-bit lanes of Y8 every intFoldBytes. The tail
// is scalar integer arithmetic (LOADB, TAILSTEP on R8, R9 into R8).
#define INTROWS(WIDEN, LOADB, STEP, TAILSTEP) \
	XORQ    AX, AX               \ // i
	MOVQ    CX, DX               \
	ANDQ    $-16, DX             \ // full-step limit
	VPXOR   Y8, Y8, Y8           \
chunk:                           \
	CMPQ    AX, DX               \
	JGE     hsum                 \
	LEAQ    intFoldBytes(AX), R11 \
	CMPQ    R11, DX              \
	CMOVQGT DX, R11              \ // this fold's limit
	VPXOR   Y0, Y0, Y0           \
steps:                           \
	WIDEN   (SI)(AX*1), Y1       \
	WIDEN   (DI)(AX*1), Y2       \
	STEP                         \
	VPADDD  Y1, Y0, Y0           \
	ADDQ    $16, AX              \
	CMPQ    AX, R11              \
	JLT     steps                \
	VEXTRACTI128 $1, Y0, X1      \
	VPMOVSXDQ X0, Y2             \
	VPMOVSXDQ X1, Y3             \
	VPADDQ  Y2, Y8, Y8           \
	VPADDQ  Y3, Y8, Y8           \
	JMP     chunk                \
hsum:                            \
	VEXTRACTI128 $1, Y8, X1      \
	VPADDQ  X1, X8, X8           \
	VPSHUFD $0x4e, X8, X1        \
	VPADDQ  X1, X8, X8           \
	VMOVQ   X8, R10              \ // the sum so far
tail:                            \
	CMPQ    AX, CX               \
	JGE     done                 \
	LOADB   (SI)(AX*1), R8       \
	LOADB   (DI)(AX*1), R9       \
	TAILSTEP                     \
	ADDQ    R8, R10              \
	INCQ    AX                   \
	JMP     tail                 \
done:                            \
	VXORPD  X0, X0, X0           \
	VCVTSI2SDQ R10, X0, X0

#define L2W \
	VPSUBW   Y2, Y1, Y1 \
	VPMADDWD Y1, Y1, Y1
#define DOTW VPMADDWD Y2, Y1, Y1
#define L2Q \
	SUBQ  R9, R8 \
	IMULQ R8, R8
#define DOTQ IMULQ R9, R8

// func squaredL2AVX2(a, b []float32) float64
TEXT ·squaredL2AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	FLOATROWS(LOADF32, TAILF32, L2PD, L2SD)
	VMOVSD X9, ret+48(FP)
	VZEROUPPER
	RET

// func dotAVX2(a, b []float32) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	FLOATROWS(LOADF32, TAILF32, DOTPD, DOTSD)
	VMOVSD X9, ret+48(FP)
	VZEROUPPER
	RET

// The typed row kernels (rowkernels_amd64.go): the same bodies over rows in
// their storage encoding, the element count derived from the byte length.

// func squaredL2F32AVX2(a, b []byte) float64
TEXT ·squaredL2F32AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	SHRQ   $2, CX
	FLOATROWS(LOADF32, TAILF32, L2PD, L2SD)
	VMOVSD X9, ret+48(FP)
	VZEROUPPER
	RET

// func dotF32AVX2(a, b []byte) float64
TEXT ·dotF32AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	SHRQ   $2, CX
	FLOATROWS(LOADF32, TAILF32, DOTPD, DOTSD)
	VMOVSD X9, ret+48(FP)
	VZEROUPPER
	RET

// func squaredL2F16AVX2(a, b []byte) float64
TEXT ·squaredL2F16AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	SHRQ   $1, CX
	FLOATROWS(LOADF16, TAILF16, L2PD, L2SD)
	VMOVSD X9, ret+48(FP)
	VZEROUPPER
	RET

// func dotF16AVX2(a, b []byte) float64
TEXT ·dotF16AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	SHRQ   $1, CX
	FLOATROWS(LOADF16, TAILF16, DOTPD, DOTSD)
	VMOVSD X9, ret+48(FP)
	VZEROUPPER
	RET

// func squaredL2BF16AVX2(a, b []byte) float64
TEXT ·squaredL2BF16AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	SHRQ   $1, CX
	FLOATROWS(LOADBF16, TAILBF16, L2PD, L2SD)
	VMOVSD X9, ret+48(FP)
	VZEROUPPER
	RET

// func dotBF16AVX2(a, b []byte) float64
TEXT ·dotBF16AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	SHRQ   $1, CX
	FLOATROWS(LOADBF16, TAILBF16, DOTPD, DOTSD)
	VMOVSD X9, ret+48(FP)
	VZEROUPPER
	RET

// func squaredL2U8AVX2(a, b []byte) float64
TEXT ·squaredL2U8AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	INTROWS(VPMOVZXBW, MOVBQZX, L2W, L2Q)
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func dotU8AVX2(a, b []byte) float64
TEXT ·dotU8AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	INTROWS(VPMOVZXBW, MOVBQZX, DOTW, DOTQ)
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func squaredL2I8AVX2(a, b []byte) float64
TEXT ·squaredL2I8AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	INTROWS(VPMOVSXBW, MOVBQSX, L2W, L2Q)
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func dotI8AVX2(a, b []byte) float64
TEXT ·dotI8AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	INTROWS(VPMOVSXBW, MOVBQSX, DOTW, DOTQ)
	VMOVSD X0, ret+48(FP)
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

// func prefetchT0(row []byte, lines int)
//
// Asks for the first `lines` 64 B lines of row, never past its end: a hint,
// no architectural effect, no fault on any address.
TEXT ·prefetchT0(SB), NOSPLIT, $0-32
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	MOVQ lines+24(FP), DX
	LEAQ (SI)(CX*1), DI    // end of the row

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
