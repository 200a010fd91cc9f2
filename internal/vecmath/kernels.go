// Distance kernels for the query hot path.
//
// Every distance-like quantity in the hot path (exact kernels, the
// incremental bounder's partial sums, kmeans assignment) is accumulated in
// ONE canonical order so that results are bitwise reproducible across code
// paths: dimensions are grouped into fixed blocks of BlockDims, each block
// is reduced with a 4-lane unrolled sum (scalarBlockSum), and the per-block
// subtotals are added left to right. Both the scalar kernels below and the
// SIMD implementations behind the dispatch table (dispatch.go) inline the
// exact same association pattern — the fuzz tests in fuzz_test.go assert
// bitwise agreement between every dispatchable implementation and a
// reference built by composing scalar block sums, which is what lets
// bitplane.Bounder's blocked partial sums stay bitwise equal to the exact
// distance once a vector is fully fetched (DESIGN.md, "Hot-path
// performance" and "SIMD dispatch").
//
// Length contract: the two-vector kernels (SquaredL2, Dot and everything
// derived from them) PANIC on a length mismatch — ragged inputs are always
// a caller bug, and silently truncating to the shorter vector would turn a
// corrupted index into wrong search results. The panic is part of the
// public contract and every implementation (scalar and SIMD) observes it
// identically: lengths are validated once in the exported wrapper, before
// dispatch, so assembly kernels only ever see equal-length slices.
package vecmath

import "fmt"

// BlockDims is the number of dimensions per summation block. 16 float64
// subtotals fit in two cache lines, and a 16-term block is enough for the
// 4-lane unroll to hide the FP add latency chain; bitplane.Bounder uses the
// same constant for its per-block running subtotals. The SIMD kernels
// depend on the two facts that a block is 4 lanes × 4 strided terms and
// that 4 float64 lanes fill one 256-bit vector register.
const BlockDims = 16

// checkPair validates the shared length contract of the two-vector kernels.
func checkPair(kernel string, a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: %s dimension mismatch %d vs %d", kernel, len(a), len(b)))
	}
}

// checkBlocks validates the BlockSumsTotal geometry contract: blockSums
// must hold exactly one subtotal per BlockDims-sized block of contrib, and
// [firstBlk, lastBlk] must be a non-empty in-range block interval.
func checkBlocks(contrib, blockSums []float64, firstBlk, lastBlk int) {
	if want := (len(contrib) + BlockDims - 1) / BlockDims; len(blockSums) != want {
		panic(fmt.Sprintf("vecmath: BlockSumsTotal: %d block sums for %d dims (want %d)",
			len(blockSums), len(contrib), want))
	}
	if firstBlk < 0 || lastBlk < firstBlk || lastBlk >= len(blockSums) {
		panic(fmt.Sprintf("vecmath: BlockSumsTotal: block range [%d,%d] out of range (%d blocks)",
			firstBlk, lastBlk, len(blockSums)))
	}
}

// scalarBlockSum reduces up to BlockDims terms in the canonical block
// order: four independent accumulator lanes over strided terms for a full
// block, a plain left-to-right sum for a partial tail block. This is the
// ONLY reduction order hot-path code may use for distance contributions:
// every kernel, scalar or SIMD, reproduces it bitwise on every input, and
// BlockSumsTotal is the one kernel that reduces terms block by block.
func scalarBlockSum(terms []float64) float64 {
	if len(terms) == BlockDims {
		var s0, s1, s2, s3 float64
		for i := 0; i < BlockDims; i += 4 {
			s0 += terms[i]
			s1 += terms[i+1]
			s2 += terms[i+2]
			s3 += terms[i+3]
		}
		return (s0 + s1) + (s2 + s3)
	}
	s := 0.0
	for _, t := range terms {
		s += t
	}
	return s
}

// BlockedSum reduces an arbitrary-length term slice the way the hot path
// does: scalarBlockSum per BlockDims-sized block, subtotals left to right.
// It composes the SCALAR block sum on purpose: this is the reference the
// fuzz and property tests pin every SIMD implementation against.
func BlockedSum(terms []float64) float64 {
	total := 0.0
	for i := 0; i < len(terms); i += BlockDims {
		total += scalarBlockSum(terms[i:min(i+BlockDims, len(terms))])
	}
	return total
}

// BlockSumsTotal refreshes the per-block subtotals blockSums[firstBlk..lastBlk]
// from contrib (blockSums[k] = scalarBlockSum of contrib's k-th block) and
// returns the left-to-right total over ALL of blockSums. It is the fused
// bounder bound-update kernel: consuming one 64 B line touches a handful of
// blocks, and the bound is the fresh total of every block subtotal (never an
// incremental delta — see DESIGN.md on catastrophic cancellation). Geometry
// is validated here, before dispatch; the blockSums slice must hold exactly
// ceil(len(contrib)/BlockDims) entries.
func BlockSumsTotal(contrib, blockSums []float64, firstBlk, lastBlk int) float64 {
	checkBlocks(contrib, blockSums, firstBlk, lastBlk)
	return blockSumsTotalDispatch(contrib, blockSums, firstBlk, lastBlk)
}

// scalarBlockSumsTotal is the portable reference BlockSumsTotal.
func scalarBlockSumsTotal(contrib, blockSums []float64, firstBlk, lastBlk int) float64 {
	dim := len(contrib)
	for k := firstBlk; k <= lastBlk; k++ {
		lo := k * BlockDims
		hi := lo + BlockDims
		if hi > dim {
			hi = dim
		}
		blockSums[k] = scalarBlockSum(contrib[lo:hi])
	}
	total := 0.0
	for _, s := range blockSums {
		total += s
	}
	return total
}

// SquaredL2 computes sum((a_i-b_i)^2) in float64 with the canonical blocked
// reduction. It is the sqrt-free comparison kernel: for ordering
// candidates, comparing squared distances is equivalent to (and cheaper
// than) comparing Euclidean distances. Panics if len(a) != len(b); the
// dispatched implementations are bitwise-identical to scalarSquaredL2.
func SquaredL2(a, b []float32) float64 {
	checkPair("SquaredL2", a, b)
	return squaredL2Dispatch(a, b)
}

// scalarSquaredL2 is the portable reference kernel, 4-way unrolled in the
// canonical block order. Callers must have validated len(a) == len(b).
func scalarSquaredL2(a, b []float32) float64 {
	n := len(a)
	total := 0.0
	i := 0
	for ; i+BlockDims <= n; i += BlockDims {
		va := a[i : i+BlockDims : i+BlockDims]
		vb := b[i : i+BlockDims : i+BlockDims]
		var s0, s1, s2, s3 float64
		for j := 0; j < BlockDims; j += 4 {
			d0 := float64(va[j]) - float64(vb[j])
			d1 := float64(va[j+1]) - float64(vb[j+1])
			d2 := float64(va[j+2]) - float64(vb[j+2])
			d3 := float64(va[j+3]) - float64(vb[j+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		total += (s0 + s1) + (s2 + s3)
	}
	if i < n {
		tail := 0.0
		for ; i < n; i++ {
			d := float64(a[i]) - float64(b[i])
			tail += d * d
		}
		total += tail
	}
	return total
}

// Dot computes sum(a_i*b_i) in float64 with the canonical blocked
// reduction. The inner-product distance is its negation. Panics if
// len(a) != len(b); the dispatched implementations are bitwise-identical
// to scalarDot.
func Dot(a, b []float32) float64 {
	checkPair("Dot", a, b)
	return dotDispatch(a, b)
}

// scalarDot is the portable reference kernel, 4-way unrolled in the
// canonical block order. Callers must have validated len(a) == len(b).
func scalarDot(a, b []float32) float64 {
	n := len(a)
	total := 0.0
	i := 0
	for ; i+BlockDims <= n; i += BlockDims {
		va := a[i : i+BlockDims : i+BlockDims]
		vb := b[i : i+BlockDims : i+BlockDims]
		var s0, s1, s2, s3 float64
		for j := 0; j < BlockDims; j += 4 {
			s0 += float64(va[j]) * float64(vb[j])
			s1 += float64(va[j+1]) * float64(vb[j+1])
			s2 += float64(va[j+2]) * float64(vb[j+2])
			s3 += float64(va[j+3]) * float64(vb[j+3])
		}
		total += (s0 + s1) + (s2 + s3)
	}
	if i < n {
		tail := 0.0
		for ; i < n; i++ {
			tail += float64(a[i]) * float64(b[i])
		}
		total += tail
	}
	return total
}
