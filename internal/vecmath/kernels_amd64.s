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
// reference; FuzzRowKernel4MatchesRowKernel and
// FuzzRowKernelRunMatchesRowKernel gate the four-row and run kernels
// against the one-row ones.
//
// The screens at the end of the macros are not distance kernels and keep
// none of this: they sum in float32 with FMA, in their own order, and
// return survivor bits whose contract is a proof against the float64
// kernel's value (screen.go), gated by FuzzScreenNeverRejectsAdmitted and,
// for float32 rows' heads, FuzzHeadScreenNeverRejectsAdmitted.

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

// FLOATROWS4 is the body of the four-row float kernels: with SI at the
// query, BX at the four row slices and CX the element count it stores the
// four canonical blocked totals, row r's in lane r, at R12. Each block keeps
// one 4-lane accumulator per row (Y0..Y3) and widens the query group once
// for all four (Y4); the term is OPPD4 on Y4, Y5 into Y5. The block ends
// with the four (s0+s1)+(s2+s3) taken at once: VHADDPD pairs lanes 0+1 and
// 2+3 of two rows, VPERM2F128 gathers every row's s0+s1 in one register and
// its s2+s3 in another, one VADDPD adds them. Lane r of the totals (Y10)
// then gets the block added from +0, left to right, as FLOATROWS' X9 does.
// The tail runs across the rows too, each lane's terms added left to right
// from +0 (Y6) and the sum added to its total — FLOATROWS' scalar tail, lane
// by lane. Four tail elements at a time, each row's four terms are taken as
// in a block (Y0..Y3, one register per row), a 4×4 transpose turns them into
// one register per element with row r in lane r, and the four are added in
// element order; the last 0–3 elements go one at a time: element i of each
// row in its lane (GATHER), the query's broadcast (TAIL, then VBROADCASTSD).
// So every lane performs the one-row kernel's operations in its order and
// out[r] is its result bit for bit. R8 is the TAIL macros' scratch; Y7..Y9
// and Y11 the transpose's.
#define FLOATROWS4(LOAD, TAIL, GATHER, OPPD4) \
	MOVQ   0(BX), DI               \
	MOVQ   24(BX), R9              \
	MOVQ   48(BX), R10             \
	MOVQ   72(BX), R11             \
	VXORPD Y10, Y10, Y10           \ // four totals
	XORQ   AX, AX                  \ // i
	MOVQ   CX, DX                  \
	ANDQ   $-16, DX                \ // full-block limit
blocks:                            \
	CMPQ   AX, DX                  \
	JGE    tail                    \
	VXORPD Y0, Y0, Y0              \
	VXORPD Y1, Y1, Y1              \
	VXORPD Y2, Y2, Y2              \
	VXORPD Y3, Y3, Y3              \
	FLOATGROUP4(LOAD, OPPD4, 0)    \
	FLOATGROUP4(LOAD, OPPD4, 1)    \
	FLOATGROUP4(LOAD, OPPD4, 2)    \
	FLOATGROUP4(LOAD, OPPD4, 3)    \
	VHADDPD    Y1, Y0, Y0          \ // [a0+a1 b0+b1 a2+a3 b2+b3]
	VHADDPD    Y3, Y2, Y2          \ // [c0+c1 d0+d1 c2+c3 d2+d3]
	VPERM2F128 $0x20, Y2, Y0, Y1   \ // every row's s0+s1
	VPERM2F128 $0x31, Y2, Y0, Y3   \ // every row's s2+s3
	VADDPD     Y3, Y1, Y1          \ // (s0+s1)+(s2+s3)
	VADDPD     Y1, Y10, Y10        \ // totals += blocks
	ADDQ   $16, AX                 \
	JMP    blocks                  \
tail:                              \
	CMPQ   AX, CX                  \
	JGE    done                    \
	VXORPD Y6, Y6, Y6              \ // four tail accumulators
	LEAQ   -3(CX), DX              \ // groups of four start below this
tailfours:                         \
	CMPQ   AX, DX                  \
	JGE    tailrest                \
	LOAD(0, SI, X4, Y4)            \
	TAILTERM4(LOAD, OPPD4, DI, Y0)  \
	TAILTERM4(LOAD, OPPD4, R9, Y1)  \
	TAILTERM4(LOAD, OPPD4, R10, Y2) \
	TAILTERM4(LOAD, OPPD4, R11, Y3) \
	VUNPCKLPD  Y1, Y0, Y7          \ // [a0 b0 a2 b2]
	VUNPCKHPD  Y1, Y0, Y8          \ // [a1 b1 a3 b3]
	VUNPCKLPD  Y3, Y2, Y9          \ // [c0 d0 c2 d2]
	VUNPCKHPD  Y3, Y2, Y11         \ // [c1 d1 c3 d3]
	VPERM2F128 $0x20, Y9, Y7, Y0   \ // element 0 of every row
	VPERM2F128 $0x20, Y11, Y8, Y1  \ // element 1
	VPERM2F128 $0x31, Y9, Y7, Y2   \ // element 2
	VPERM2F128 $0x31, Y11, Y8, Y3  \ // element 3
	VADDPD Y0, Y6, Y6              \
	VADDPD Y1, Y6, Y6              \
	VADDPD Y2, Y6, Y6              \
	VADDPD Y3, Y6, Y6              \
	ADDQ   $4, AX                  \
	JMP    tailfours               \
tailrest:                          \
	CMPQ   AX, CX                  \
	JGE    tailsum                 \
	TAIL(SI, X4)                   \
	VBROADCASTSD X4, Y4            \
	GATHER(X5, Y5)                 \
	OPPD4                          \
	VADDPD Y5, Y6, Y6              \
	INCQ   AX                      \
	JMP    tailrest                \
tailsum:                           \
	VADDPD Y6, Y10, Y10            \ // totals += tails
done:                              \
	VMOVUPD Y10, (R12)

// FLOATGROUP4 widens stride-4 group k of the query's block once and adds
// each row's terms of it into that row's accumulator.
#define FLOATGROUP4(LOAD, OPPD4, k) \
	LOAD(k, SI, X4, Y4)                \
	FLOATTERM4(LOAD, OPPD4, k, DI, Y0)  \
	FLOATTERM4(LOAD, OPPD4, k, R9, Y1)  \
	FLOATTERM4(LOAD, OPPD4, k, R10, Y2) \
	FLOATTERM4(LOAD, OPPD4, k, R11, Y3)

#define FLOATTERM4(LOAD, OPPD4, k, ptr, Yacc) \
	LOAD(k, ptr, X5, Y5) \
	OPPD4                \
	VADDPD Y5, Yacc, Yacc

// TAILTERM4 puts one row's terms of four tail elements in Yrow.
#define TAILTERM4(LOAD, OPPD4, ptr, Yrow) \
	LOAD(0, ptr, X5, Y5) \
	OPPD4                \
	VMOVAPD Y5, Yrow

#define L2PD4 \
	VSUBPD Y5, Y4, Y5 \
	VMULPD Y5, Y5, Y5
#define DOTPD4 VMULPD Y5, Y4, Y5

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

// GATHER* put element AX of the four rows (DI, R9, R10, R11) in lanes 0..3
// of X and widen them into Y, exactly as the TAIL macro of the type does one.
#define GATHERF32(X, Y) \
	VMOVSS    (DI)(AX*4), X           \
	VINSERTPS $0x10, (R9)(AX*4), X, X  \
	VINSERTPS $0x20, (R10)(AX*4), X, X \
	VINSERTPS $0x30, (R11)(AX*4), X, X \
	VCVTPS2PD X, Y
#define GATHERF16(X, Y) \
	VPXOR     X, X, X                \
	VPINSRW   $0, (DI)(AX*2), X, X   \
	VPINSRW   $1, (R9)(AX*2), X, X   \
	VPINSRW   $2, (R10)(AX*2), X, X  \
	VPINSRW   $3, (R11)(AX*2), X, X  \
	VCVTPH2PS X, X                   \
	VCVTPS2PD X, Y
#define GATHERBF16(X, Y) \
	VPXOR     X, X, X                \ // each bf16 into the top half of a lane
	VPINSRW   $1, (DI)(AX*2), X, X   \
	VPINSRW   $3, (R9)(AX*2), X, X   \
	VPINSRW   $5, (R10)(AX*2), X, X  \
	VPINSRW   $7, (R11)(AX*2), X, X  \
	VCVTPS2PD X, Y

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

// INTROWS4 is the body of the four-row uint8/int8 kernels: with SI at the
// query, BX at the four row slices and CX the element count it stores the
// four sums, converted once, at R12. It is INTROWS with the query widened
// once per step for four rows (Y4): STEP4 on Y4, Y5 into Y5, each row's
// 32-bit pair sums in Y0..Y3, folded into its 64-bit lanes in Y10..Y13.
// The four 64-bit reductions run vertically (unpack, VPERM2I128, add) and
// the tails per row over the stored sums. Integer sums are exact in any
// order, so out[r] is the one-row kernel's result bit for bit.
#define INTROWS4(WIDEN, LOADB, STEP4, TAILSTEP) \
	MOVQ    0(BX), DI             \
	MOVQ    24(BX), R9            \
	MOVQ    48(BX), R10           \
	MOVQ    72(BX), R11           \
	XORQ    AX, AX                \ // i
	MOVQ    CX, DX                \
	ANDQ    $-16, DX              \ // full-step limit
	VPXOR   Y10, Y10, Y10         \
	VPXOR   Y11, Y11, Y11         \
	VPXOR   Y12, Y12, Y12         \
	VPXOR   Y13, Y13, Y13         \
chunk:                            \
	CMPQ    AX, DX                \
	JGE     hsum                  \
	LEAQ    intFoldBytes(AX), R13 \
	CMPQ    R13, DX               \
	CMOVQGT DX, R13               \ // this fold's limit
	VPXOR   Y0, Y0, Y0            \
	VPXOR   Y1, Y1, Y1            \
	VPXOR   Y2, Y2, Y2            \
	VPXOR   Y3, Y3, Y3            \
steps:                            \
	WIDEN   (SI)(AX*1), Y4        \
	INTTERM4(WIDEN, STEP4, DI, Y0)  \
	INTTERM4(WIDEN, STEP4, R9, Y1)  \
	INTTERM4(WIDEN, STEP4, R10, Y2) \
	INTTERM4(WIDEN, STEP4, R11, Y3) \
	ADDQ    $16, AX               \
	CMPQ    AX, R13               \
	JLT     steps                 \
	INTFOLD4(Y0, X0, Y10)         \
	INTFOLD4(Y1, X1, Y11)         \
	INTFOLD4(Y2, X2, Y12)         \
	INTFOLD4(Y3, X3, Y13)         \
	JMP     chunk                 \
hsum:                             \
	VPUNPCKLQDQ Y11, Y10, Y0      \ // [a0 b0 a2 b2]
	VPUNPCKHQDQ Y11, Y10, Y1      \ // [a1 b1 a3 b3]
	VPADDQ      Y1, Y0, Y0        \
	VPUNPCKLQDQ Y13, Y12, Y2      \
	VPUNPCKHQDQ Y13, Y12, Y3      \
	VPADDQ      Y3, Y2, Y2        \
	VPERM2I128  $0x20, Y2, Y0, Y1 \
	VPERM2I128  $0x31, Y2, Y0, Y3 \
	VPADDQ      Y3, Y1, Y1        \ // row r's sum so far in lane r
	VMOVDQU     Y1, (R12)         \
	MOVQ    $4, R13               \ // rows left
rowtail:                          \
	MOVQ    (BX), DI              \
	MOVQ    (R12), R10            \
	MOVQ    DX, AX                \ // back to the first tail element
tail:                             \
	CMPQ    AX, CX                \
	JGE     rowdone               \
	LOADB   (SI)(AX*1), R8        \
	LOADB   (DI)(AX*1), R9        \
	TAILSTEP                      \
	ADDQ    R8, R10               \
	INCQ    AX                    \
	JMP     tail                  \
rowdone:                          \
	VXORPD  X0, X0, X0            \
	VCVTSI2SDQ R10, X0, X0        \
	VMOVSD  X0, (R12)             \
	ADDQ    $8, R12               \
	ADDQ    $24, BX               \
	DECQ    R13                   \
	JNZ     rowtail

#define INTTERM4(WIDEN, STEP4, ptr, Yacc) \
	WIDEN  (ptr)(AX*1), Y5 \
	STEP4                  \
	VPADDD Y5, Yacc, Yacc

// INTFOLD4 folds a row's eight 32-bit lanes into its four 64-bit ones.
#define INTFOLD4(Yacc, Xacc, Y64) \
	VEXTRACTI128 $1, Yacc, X5 \
	VPMOVSXDQ    Xacc, Y14    \
	VPMOVSXDQ    X5, Y15      \
	VPADDQ       Y14, Y64, Y64 \
	VPADDQ       Y15, Y64, Y64

#define L2W4 \
	VPSUBW   Y5, Y4, Y5 \
	VPMADDWD Y5, Y5, Y5
#define DOTW4 VPMADDWD Y5, Y4, Y5

#define L2W \
	VPSUBW   Y2, Y1, Y1 \
	VPMADDWD Y1, Y1, Y1
#define DOTW VPMADDWD Y2, Y1, Y1
#define L2Q \
	SUBQ  R9, R8 \
	IMULQ R8, R8
#define DOTQ IMULQ R9, R8

// RUNFOURS begins a run kernel's loop over its rows four at a time: with
// SI at the query and CX its element count (which no body changes) it
// points BX at four row slice headers in the frame, rows 4g..4g+3 of the
// run, and R12 at out[4g], for g = 0, 1, ... while rows remain, then falls
// into the four-row body; the body jumps back to group, and the loop leaves
// through runend. The frame holds the headers (only their pointers are
// read) at 0, 24, 48 and 72, the next group's first row at 96 and the
// groups left at 104: the bodies use every other register the loop needs.
#define RUNFOURS \
	MOVQ   rows_base+24(FP), DI \
	MOVQ   DI, 96(SP)           \
	MOVQ   out_base+48(FP), R12 \
	MOVQ   out_len+56(FP), R8   \
	SHRQ   $2, R8               \
	MOVQ   R8, 104(SP)          \
group:                          \
	MOVQ   104(SP), R8          \
	TESTQ  R8, R8               \
	JZ     runend               \
	DECQ   R8                   \
	MOVQ   R8, 104(SP)          \
	MOVQ   q_len+8(FP), DX      \ // row bytes
	MOVQ   96(SP), DI           \
	MOVQ   DI, 0(SP)            \
	ADDQ   DX, DI               \
	MOVQ   DI, 24(SP)           \
	ADDQ   DX, DI               \
	MOVQ   DI, 48(SP)           \
	ADDQ   DX, DI               \
	MOVQ   DI, 72(SP)           \
	ADDQ   DX, DI               \
	MOVQ   DI, 96(SP)           \
	LEAQ   0(SP), BX

// The screens (screen.go): a float32 pass over four rows at a time, eight
// lanes of fused multiply-adds per row, that keeps a row's survivor bit
// unless its float64 kernel value is proven past the bound. Each body
// starts with SI at the plan (the query, then |q| at R13, then the tail
// step's lane mask at R14), DI at the first row, R8 the count of fours, R9
// the row stride and BX the bytes of a row the body's whole steps take
// (AX runs over them; the plan's offset is QS·AX). Row r of the four is at
// DI, R10, R11, DX; the survivor bits gather in R12, the next four's first
// bit in CX, and the body ends at its done label. LOAD8 widens the eight
// elements at (ptr)(AX*1) into Y8, STEP is their bytes. After the body, a
// row with a tail takes its last eight elements once more, AX at the
// frame's tail offset, with the lanes the body took masked to zero (R14).
// SCREENSUM4 then folds each row's eight lanes in three adds and widens the
// four sums to float64.
#define SCREENSTART(QS) \
	MOVQ   plan_base+0(FP), SI     \
	MOVQ   rows_base+24(FP), DI    \
	MOVQ   n+48(FP), R8            \
	SHRQ   $2, R8                  \
	MOVQ   stride+56(FP), R9       \
	MOVQ   body+64(FP), BX         \
	LEAQ   32(SI)(BX*QS), R13      \
	LEAQ   32(R13)(BX*QS), R14     \
	VBROADCASTSD e0+88(FP), Y13    \
	VBROADCASTSD bound+96(FP), Y12 \
	XORQ   CX, CX                  \
	XORQ   R12, R12

// screenPrefetchStride is the longest row (or head) whose screen asks for
// the four rows two fours ahead, every line of them, before it takes a
// four: on GloVe's 400-byte rows, streamed from past the L2, that took the
// scan from ~220 to ~190 µs a query (EXPERIMENTS.md, "The scan's float32
// screen"); its 208-byte heads take it too. On GIST's 3840-byte rows, and
// 1920-byte heads, the hardware's own streamer keeps up and the hints only
// cost.
#define screenPrefetchStride 512

// SCREENFOUR points R10, R11 and DX at rows 1–3 of the four at DI, after
// the prefetch above. A prefetch past the run's end is a hint like any
// other: it never faults.
#define SCREENFOUR \
	CMPQ   R9, $screenPrefetchStride \
	JGT    screenfour              \
	LEAQ   (DI)(R9*8), R10         \
	LEAQ   (R10)(R9*4), R11        \
screenpf:                          \
	PREFETCHT0 (R10)               \
	ADDQ   $64, R10                \
	CMPQ   R10, R11                \
	JLT    screenpf                \
screenfour:                        \
	LEAQ   (DI)(R9*1), R10         \
	LEAQ   (DI)(R9*2), R11         \
	LEAQ   (R10)(R9*2), DX         \
	XORQ   AX, AX

// SCREENBITS ors the four survivor lanes of Ymask into R12 at bit CX and
// moves on to the next four.
#define SCREENBITS(Ymask) \
	VMOVMSKPD Ymask, DX     \
	SHLQ   CX, DX           \
	ORQ    DX, R12          \
	ADDQ   $4, CX           \
	LEAQ   (DI)(R9*4), DI   \
	DECQ   R8

#define SCREENSUM4(Ya, Yb, Yc, Yd, Xa, Xb) \
	VHADDPS Yb, Ya, Ya       \ // [a01 a23 b01 b23 | a45 a67 b45 b67]
	VHADDPS Yd, Yc, Yc       \
	VHADDPS Yc, Ya, Ya       \ // [a0-3 b0-3 c0-3 d0-3 | a4-7 b4-7 c4-7 d4-7]
	VEXTRACTF128 $1, Ya, Xb  \
	VADDPS  Xb, Xa, Xa       \
	VCVTPS2PD Xa, Ya

// SCREENDOT is the inner product's screen: Σ q·x in Y0..Y3 and Σ |q|·|x|
// in Y4..Y7, one register per row; the bound B = S + k·A + e0 (one fused
// rounding, then the add) and the survivor test !(B < bound), which a NaN
// passes.
#define SCREENDOT(LOAD8, QS, STEP) \
	SCREENSTART(QS)                \
	VBROADCASTSD k+80(FP), Y14     \
	VPCMPEQD Y15, Y15, Y15         \
	VPSRLD $1, Y15, Y15            \ // every bit but a float32's sign
dotfour:                           \
	TESTQ  R8, R8                  \
	JZ     dotdone                 \
	SCREENFOUR                     \
	VXORPS Y0, Y0, Y0              \
	VXORPS Y1, Y1, Y1              \
	VXORPS Y2, Y2, Y2              \
	VXORPS Y3, Y3, Y3              \
	VXORPS Y4, Y4, Y4              \
	VXORPS Y5, Y5, Y5              \
	VXORPS Y6, Y6, Y6              \
	VXORPS Y7, Y7, Y7              \
dotbody:                           \
	CMPQ   AX, BX                  \
	JGE    dottail                 \
	DOTSTEP(LOAD8, (SI)(AX*QS), (R13)(AX*QS), DI, Y0, Y4)  \
	DOTSTEP(LOAD8, (SI)(AX*QS), (R13)(AX*QS), R10, Y1, Y5) \
	DOTSTEP(LOAD8, (SI)(AX*QS), (R13)(AX*QS), R11, Y2, Y6) \
	DOTSTEP(LOAD8, (SI)(AX*QS), (R13)(AX*QS), DX, Y3, Y7)  \
	ADDQ   $STEP, AX               \
	JMP    dotbody                 \
dottail:                           \
	MOVQ   tail+72(FP), AX         \
	TESTQ  AX, AX                  \
	JL     dotdecide               \
	DOTTAIL(LOAD8, QS, DI, Y0, Y4)  \
	DOTTAIL(LOAD8, QS, R10, Y1, Y5) \
	DOTTAIL(LOAD8, QS, R11, Y2, Y6) \
	DOTTAIL(LOAD8, QS, DX, Y3, Y7)  \
dotdecide:                         \
	SCREENSUM4(Y0, Y1, Y2, Y3, X0, X1) \
	SCREENSUM4(Y4, Y5, Y6, Y7, X4, X5) \
	VFMADD231PD Y14, Y4, Y0        \ // S + k·A
	VADDPD Y13, Y0, Y0             \ // + e0
	VCMPPD $0x05, Y12, Y0, Y0      \ // NLT_US: !(B < bound)
	SCREENBITS(Y0)                 \
	JMP    dotfour                 \
dotdone:

#define DOTSTEP(LOAD8, qmem, absmem, ptr, Ys, Ya) \
	LOAD8(ptr, Y8)                 \
	VFMADD231PS qmem, Y8, Ys       \
	VANDPS Y15, Y8, Y8             \
	VFMADD231PS absmem, Y8, Ya

#define DOTTAIL(LOAD8, QS, ptr, Ys, Ya) \
	LOAD8(ptr, Y8)                 \
	VANDPS (R14), Y8, Y8           \
	DOTSTEP(LOAD8NONE, (SI)(BX*QS), (R13)(BX*QS), ptr, Ys, Ya)

// SCREENL2 is squared L2's screen: Σ (x − q)² in Y0..Y3; the bound
// L = c·S − e0 and the survivor test !(L > bound) || S = +Inf, which a NaN
// passes too.
#define SCREENL2(LOAD8, QS, STEP) \
	SCREENSTART(QS)                \
	VBROADCASTSD c+80(FP), Y14     \
	VPCMPEQQ Y11, Y11, Y11         \
	VPSLLQ $53, Y11, Y11           \
	VPSRLQ $1, Y11, Y11            \ // +Inf
l2four:                            \
	TESTQ  R8, R8                  \
	JZ     l2done                  \
	SCREENFOUR                     \
	VXORPS Y0, Y0, Y0              \
	VXORPS Y1, Y1, Y1              \
	VXORPS Y2, Y2, Y2              \
	VXORPS Y3, Y3, Y3              \
l2body:                            \
	CMPQ   AX, BX                  \
	JGE    l2tail                  \
	L2STEP(LOAD8, (SI)(AX*QS), DI, Y0)  \
	L2STEP(LOAD8, (SI)(AX*QS), R10, Y1) \
	L2STEP(LOAD8, (SI)(AX*QS), R11, Y2) \
	L2STEP(LOAD8, (SI)(AX*QS), DX, Y3)  \
	ADDQ   $STEP, AX               \
	JMP    l2body                  \
l2tail:                            \
	MOVQ   tail+72(FP), AX         \
	TESTQ  AX, AX                  \
	JL     l2decide                \
	L2TAIL(LOAD8, QS, DI, Y0)      \
	L2TAIL(LOAD8, QS, R10, Y1)     \
	L2TAIL(LOAD8, QS, R11, Y2)     \
	L2TAIL(LOAD8, QS, DX, Y3)      \
l2decide:                          \
	SCREENSUM4(Y0, Y1, Y2, Y3, X0, X1) \
	VMULPD Y14, Y0, Y1             \ // c·S
	VSUBPD Y13, Y1, Y1             \ // − e0
	VCMPPD $0x0A, Y12, Y1, Y1      \ // NGT_US: !(L > bound)
	VCMPPD $0x00, Y11, Y0, Y2      \ // EQ_OQ: S = +Inf
	VORPD  Y2, Y1, Y1              \
	SCREENBITS(Y1)                 \
	JMP    l2four                  \
l2done:

#define L2STEP(LOAD8, qmem, ptr, Ys) \
	LOAD8(ptr, Y8)                 \
	VSUBPS qmem, Y8, Y8            \
	VFMADD231PS Y8, Y8, Ys

#define L2TAIL(LOAD8, QS, ptr, Ys) \
	LOAD8(ptr, Y8)                 \
	VSUBPS (SI)(BX*QS), Y8, Y8     \
	VANDPS (R14), Y8, Y8           \
	VFMADD231PS Y8, Y8, Ys

// The LOAD8s: eight fp16 through F16C; eight bf16 zero-extended and
// shifted into the top of their lanes. LOAD8NONE leaves Y8 as it is.
#define LOAD8F16(ptr, Y) VCVTPH2PS (ptr)(AX*1), Y
#define LOAD8BF16(ptr, Y) \
	VPMOVZXWD (ptr)(AX*1), Y \
	VPSLLD    $16, Y, Y
#define LOAD8NONE(ptr, Y)

// The head screens (screen.go) screen float32 rows through their heads: 16
// bits an element, padded with zeros to whole steps of eight, and each
// row's residual norm ρ and head norm ν beside them. A step of sixteen
// elements reads one 32-byte word per row and widens it with one shift (the
// even elements, the low halves of the dwords) and one AND (the odd ones),
// against a plan laid out to match (eight even elements, then eight odd);
// evens and odds go to two accumulators per row, Y0..Y3 and Y4..Y7, which
// are added before the fold. A head whose padded length is not a multiple
// of sixteen ends with one eight-element step, LOAD8BF16, into the evens'.
// The registers are the screens' above (SCREENFOUR, SCREENBITS); BX is
// the bytes the sixteen-element steps take, Y15 the odd elements' mask.
#define HEADSTART \
	MOVQ   plan_base+0(FP), SI  \
	MOVQ   heads_base+24(FP), DI \
	MOVQ   n+96(FP), R8         \
	SHRQ   $2, R8               \
	MOVQ   stride+104(FP), R9   \
	MOVQ   body+112(FP), BX     \
	VPCMPEQD Y15, Y15, Y15      \
	VPSLLD $16, Y15, Y15        \ // 0xffff0000 a dword
	XORQ   CX, CX               \
	XORQ   R12, R12

// HEADSUMS runs the steps of the four rows at DI, R10, R11, DX (STEP16 and
// STEP8 on a row and its two accumulators) and leaves each row's lane sums
// in Y0..Y3.
#define HEADSUMS(STEP16, STEP8, lbody, lmid, lsum) \
	VXORPS Y0, Y0, Y0              \
	VXORPS Y1, Y1, Y1              \
	VXORPS Y2, Y2, Y2              \
	VXORPS Y3, Y3, Y3              \
	VXORPS Y4, Y4, Y4              \
	VXORPS Y5, Y5, Y5              \
	VXORPS Y6, Y6, Y6              \
	VXORPS Y7, Y7, Y7              \
lbody:                             \
	CMPQ   AX, BX                  \
	JGE    lmid                    \
	STEP16(DI, Y0, Y4)             \
	STEP16(R10, Y1, Y5)            \
	STEP16(R11, Y2, Y6)            \
	STEP16(DX, Y3, Y7)             \
	ADDQ   $32, AX                 \
	JMP    lbody                   \
lmid:                              \
	CMPQ   AX, R9                  \
	JGE    lsum                    \
	STEP8(DI, Y0)                  \
	STEP8(R10, Y1)                 \
	STEP8(R11, Y2)                 \
	STEP8(DX, Y3)                  \
lsum:                              \
	VADDPS Y4, Y0, Y0              \
	VADDPS Y5, Y1, Y1              \
	VADDPS Y6, Y2, Y2              \
	VADDPS Y7, Y3, Y3

// WIDEN16 widens the sixteen head elements at (ptr)(AX*1): the even ones
// into Y9, the odd ones into Y8.
#define WIDEN16(ptr) \
	VMOVDQU (ptr)(AX*1), Y8 \
	VPSLLD  $16, Y8, Y9     \
	VPAND   Y15, Y8, Y8

#define HDOT16(ptr, Ye, Yo) \
	WIDEN16(ptr)                      \
	VFMADD231PS (SI)(AX*2), Y9, Ye    \
	VFMADD231PS 32(SI)(AX*2), Y8, Yo

#define HDOT8(ptr, Ye) \
	LOAD8BF16(ptr, Y8)                \
	VFMADD231PS (SI)(AX*2), Y8, Ye

#define HL216(ptr, Ye, Yo) \
	WIDEN16(ptr)                      \
	VSUBPS (SI)(AX*2), Y9, Y9         \
	VSUBPS 32(SI)(AX*2), Y8, Y8       \
	VFMADD231PS Y9, Y9, Ye            \
	VFMADD231PS Y8, Y8, Yo

#define HL28(ptr, Ye) \
	LOAD8BF16(ptr, Y8)                \
	VSUBPS (SI)(AX*2), Y8, Y8         \
	VFMADD231PS Y8, Y8, Ye

// The two-row kernels (rowkernels_amd64.go): FLOATROWS and INTROWS over
// rows in their storage encoding, the element count derived from the byte
// length. The fp32 pair is also SquaredL2's and Dot's: on amd64 a []float32
// already is its row (dispatch_amd64.go).

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

// The four-row float kernels (rowkernels_amd64.go): one query against four
// rows of its length, the same bodies as FLOATROWS lane by lane.

// func squaredL2F32x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·squaredL2F32x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $2, CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	FLOATROWS4(LOADF32, TAILF32, GATHERF32, L2PD4)
	VZEROUPPER
	RET

// func dotF32x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·dotF32x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $2, CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	FLOATROWS4(LOADF32, TAILF32, GATHERF32, DOTPD4)
	VZEROUPPER
	RET

// func squaredL2F16x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·squaredL2F16x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $1, CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	FLOATROWS4(LOADF16, TAILF16, GATHERF16, L2PD4)
	VZEROUPPER
	RET

// func dotF16x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·dotF16x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $1, CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	FLOATROWS4(LOADF16, TAILF16, GATHERF16, DOTPD4)
	VZEROUPPER
	RET

// func squaredL2BF16x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·squaredL2BF16x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $1, CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	FLOATROWS4(LOADBF16, TAILBF16, GATHERBF16, L2PD4)
	VZEROUPPER
	RET

// func dotBF16x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·dotBF16x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $1, CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	FLOATROWS4(LOADBF16, TAILBF16, GATHERBF16, DOTPD4)
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

// func squaredL2U8x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·squaredL2U8x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	INTROWS4(VPMOVZXBW, MOVBQZX, L2W4, L2Q)
	VZEROUPPER
	RET

// func dotU8x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·dotU8x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	INTROWS4(VPMOVZXBW, MOVBQZX, DOTW4, DOTQ)
	VZEROUPPER
	RET

// func squaredL2I8x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·squaredL2I8x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	INTROWS4(VPMOVSXBW, MOVBQSX, L2W4, L2Q)
	VZEROUPPER
	RET

// func dotI8x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)
TEXT ·dotI8x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   rows+24(FP), BX
	MOVQ   out+32(FP), R12
	INTROWS4(VPMOVSXBW, MOVBQSX, DOTW4, DOTQ)
	VZEROUPPER
	RET

// The run kernels (rowkernels_amd64.go): the four-row bodies over a run of
// rows laid end to end, four at a time.

// func squaredL2F32RunAVX2(q, rows []byte, out []float64)
TEXT ·squaredL2F32RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $2, CX
	RUNFOURS
	FLOATROWS4(LOADF32, TAILF32, GATHERF32, L2PD4)
	ADDQ   $32, R12
	JMP    group
runend:
	VZEROUPPER
	RET

// func dotF32RunAVX2(q, rows []byte, out []float64)
TEXT ·dotF32RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $2, CX
	RUNFOURS
	FLOATROWS4(LOADF32, TAILF32, GATHERF32, DOTPD4)
	ADDQ   $32, R12
	JMP    group
runend:
	VZEROUPPER
	RET

// func squaredL2F16RunAVX2(q, rows []byte, out []float64)
TEXT ·squaredL2F16RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $1, CX
	RUNFOURS
	FLOATROWS4(LOADF16, TAILF16, GATHERF16, L2PD4)
	ADDQ   $32, R12
	JMP    group
runend:
	VZEROUPPER
	RET

// func dotF16RunAVX2(q, rows []byte, out []float64)
TEXT ·dotF16RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $1, CX
	RUNFOURS
	FLOATROWS4(LOADF16, TAILF16, GATHERF16, DOTPD4)
	ADDQ   $32, R12
	JMP    group
runend:
	VZEROUPPER
	RET

// func squaredL2BF16RunAVX2(q, rows []byte, out []float64)
TEXT ·squaredL2BF16RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $1, CX
	RUNFOURS
	FLOATROWS4(LOADBF16, TAILBF16, GATHERBF16, L2PD4)
	ADDQ   $32, R12
	JMP    group
runend:
	VZEROUPPER
	RET

// func dotBF16RunAVX2(q, rows []byte, out []float64)
TEXT ·dotBF16RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	SHRQ   $1, CX
	RUNFOURS
	FLOATROWS4(LOADBF16, TAILBF16, GATHERBF16, DOTPD4)
	ADDQ   $32, R12
	JMP    group
runend:
	VZEROUPPER
	RET

// func squaredL2U8RunAVX2(q, rows []byte, out []float64)
TEXT ·squaredL2U8RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	RUNFOURS
	INTROWS4(VPMOVZXBW, MOVBQZX, L2W4, L2Q) // leaves R12 at the next four
	JMP    group
runend:
	VZEROUPPER
	RET

// func dotU8RunAVX2(q, rows []byte, out []float64)
TEXT ·dotU8RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	RUNFOURS
	INTROWS4(VPMOVZXBW, MOVBQZX, DOTW4, DOTQ) // leaves R12 at the next four
	JMP    group
runend:
	VZEROUPPER
	RET

// func squaredL2I8RunAVX2(q, rows []byte, out []float64)
TEXT ·squaredL2I8RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	RUNFOURS
	INTROWS4(VPMOVSXBW, MOVBQSX, L2W4, L2Q) // leaves R12 at the next four
	JMP    group
runend:
	VZEROUPPER
	RET

// func dotI8RunAVX2(q, rows []byte, out []float64)
TEXT ·dotI8RunAVX2(SB), NOSPLIT, $112-72
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	RUNFOURS
	INTROWS4(VPMOVSXBW, MOVBQSX, DOTW4, DOTQ) // leaves R12 at the next four
	JMP    group
runend:
	VZEROUPPER
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

// func screenDotHeadAVX2(plan []float32, heads []byte, rho, nu []float32, n, stride, body int, e0, qn, qk, bound float64) uint64
//
// The bound B = ((S + e0) + qk·ν) + qn·ρ, each step one rounding, and the
// survivor test !(B < bound) || S = −Inf: a NaN passes, and so does a row
// whose float32 sum overflowed (+Inf makes B +Inf or a NaN).
TEXT ·screenDotHeadAVX2(SB), NOSPLIT, $0-160
	HEADSTART
	VBROADCASTSD e0+120(FP), Y13
	VBROADCASTSD qn+128(FP), Y10
	VBROADCASTSD qk+136(FP), Y14
	VBROADCASTSD bound+144(FP), Y12
	VPCMPEQQ Y11, Y11, Y11
	VPSLLQ $52, Y11, Y11 // -Inf
hdfour:
	TESTQ  R8, R8
	JZ     hddone
	SCREENFOUR
	HEADSUMS(HDOT16, HDOT8, hdbody, hdmid, hdsum)
	SCREENSUM4(Y0, Y1, Y2, Y3, X0, X1)
	VADDPD Y13, Y0, Y4 // S + e0
	MOVQ   nu_base+72(FP), AX
	VCVTPS2PD (AX)(CX*4), Y5
	VFMADD231PD Y14, Y5, Y4 // + qk·ν
	MOVQ   rho_base+48(FP), AX
	VCVTPS2PD (AX)(CX*4), Y5
	VFMADD231PD Y10, Y5, Y4 // + qn·ρ
	VCMPPD $0x05, Y12, Y4, Y4 // NLT_US: !(B < bound)
	VCMPPD $0x00, Y11, Y0, Y5 // EQ_OQ: S = -Inf
	VORPD  Y5, Y4, Y4
	SCREENBITS(Y4)
	JMP    hdfour
hddone:
	MOVQ   R12, ret+152(FP)
	VZEROUPPER
	RET

// func screenL2HeadAVX2(plan []float32, heads []byte, rho, nu []float32, n, stride, body int, c, e0, r float64) uint64
//
// L = c·S − e0 against each row's limit (r + ρ)², and the survivor test
// !(L > limit) || S = +Inf, which a NaN passes too.
TEXT ·screenL2HeadAVX2(SB), NOSPLIT, $0-152
	HEADSTART
	VBROADCASTSD c+120(FP), Y14
	VBROADCASTSD e0+128(FP), Y13
	VBROADCASTSD r+136(FP), Y10
	VPCMPEQQ Y11, Y11, Y11
	VPSLLQ $53, Y11, Y11
	VPSRLQ $1, Y11, Y11 // +Inf
hlfour:
	TESTQ  R8, R8
	JZ     hldone
	SCREENFOUR
	HEADSUMS(HL216, HL28, hlbody, hlmid, hlsum)
	SCREENSUM4(Y0, Y1, Y2, Y3, X0, X1)
	VMULPD Y14, Y0, Y1 // c·S
	VSUBPD Y13, Y1, Y1 // − e0
	MOVQ   rho_base+48(FP), AX
	VCVTPS2PD (AX)(CX*4), Y2
	VADDPD Y10, Y2, Y2 // r + ρ
	VMULPD Y2, Y2, Y2 // the limit
	VCMPPD $0x0A, Y2, Y1, Y1 // NGT_US: !(L > limit)
	VCMPPD $0x00, Y11, Y0, Y2 // EQ_OQ: S = +Inf
	VORPD  Y2, Y1, Y1
	SCREENBITS(Y1)
	JMP    hlfour
hldone:
	MOVQ   R12, ret+144(FP)
	VZEROUPPER
	RET

// func screenDotF16AVX2(plan []float32, rows []byte, n, stride, body, tail int, k, e0, bound float64) uint64
TEXT ·screenDotF16AVX2(SB), NOSPLIT, $0-112
	SCREENDOT(LOAD8F16, 2, 16)
	MOVQ   R12, ret+104(FP)
	VZEROUPPER
	RET

// func screenL2F16AVX2(plan []float32, rows []byte, n, stride, body, tail int, c, e0, bound float64) uint64
TEXT ·screenL2F16AVX2(SB), NOSPLIT, $0-112
	SCREENL2(LOAD8F16, 2, 16)
	MOVQ   R12, ret+104(FP)
	VZEROUPPER
	RET

// func screenDotBF16AVX2(plan []float32, rows []byte, n, stride, body, tail int, k, e0, bound float64) uint64
TEXT ·screenDotBF16AVX2(SB), NOSPLIT, $0-112
	SCREENDOT(LOAD8BF16, 2, 16)
	MOVQ   R12, ret+104(FP)
	VZEROUPPER
	RET

// func screenL2BF16AVX2(plan []float32, rows []byte, n, stride, body, tail int, c, e0, bound float64) uint64
TEXT ·screenL2BF16AVX2(SB), NOSPLIT, $0-112
	SCREENL2(LOAD8BF16, 2, 16)
	MOVQ   R12, ret+104(FP)
	VZEROUPPER
	RET
