//go:build !amd64 || purego

package vecmath

// This file provides the dispatch bindings for platforms without assembly
// kernels (non-amd64 architectures, or any build with the purego tag): the
// scalar reference is the only implementation, and the per-call dispatch
// compiles down to direct calls.

// archImpls returns the SIMD implementations available on this CPU: none.
func archImpls() []Impl { return nil }

// activeImpl returns the implementation the package kernels dispatch to.
func activeImpl() Impl { return scalarImpl }

func squaredL2Dispatch(a, b []float32) float64 { return scalarSquaredL2(a, b) }

func dotDispatch(a, b []float32) float64 { return scalarDot(a, b) }

func blockSumsTotalDispatch(contrib, blockSums []float64, firstBlk, lastBlk int) float64 {
	return scalarBlockSumsTotal(contrib, blockSums, firstBlk, lastBlk)
}

// Prefetch is a no-op without assembly: the portable build has no prefetch
// instruction to issue, and a hint may always be dropped.
func Prefetch(row []byte) {}
