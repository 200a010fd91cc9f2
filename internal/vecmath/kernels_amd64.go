//go:build amd64 && !purego

package vecmath

// Assembly kernel stubs (kernels_amd64.s). All of them reproduce the
// canonical blocked reduction order of the scalar kernels exactly — no FMA,
// no re-association — so their results are bitwise-identical to the scalar
// reference on every input. Callers must have validated the length /
// geometry contracts (the exported wrappers in kernels.go do); the stubs
// themselves assume len(a) == len(b) and valid block geometry.

//go:noescape
func squaredL2AVX2(a, b []float32) float64

//go:noescape
func dotAVX2(a, b []float32) float64

//go:noescape
func blockSumAVX2(terms []float64) float64

//go:noescape
func blockSumsTotalAVX2(contrib, blockSums []float64, firstBlk, lastBlk int) float64

// prefetchT0 issues PREFETCHT0 over the first `lines` cache lines of row (or
// the whole row when it is shorter). See Prefetch.
//
//go:noescape
func prefetchT0(row []byte, lines int)
