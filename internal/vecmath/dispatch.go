// Runtime kernel dispatch.
//
// The hot kernels (SquaredL2, Dot, BlockSumsTotal, the row kernels, the
// screens) are selected once, at package init, from a table of
// implementations: the portable scalar reference (always compiled, every
// platform) plus whatever SIMD implementations the build and the running CPU
// support (kernels_amd64.s: AVX2). Selection is by CPU feature detection —
// no per-call probing — and can be forced down to scalar with the
// ANSMET_NO_SIMD environment variable, which is the supported way to
// cross-check SIMD results against the reference on real workloads.
//
// Every implementation in the table is bitwise-identical by contract: the
// canonical blocked reduction order (kernels.go) is reproduced exactly, FMA
// contraction is never used (it widens the intermediate rounding and would
// silently change results), and FuzzKernelsMatchReference plus the
// dims-0..64 tail property test pin every table entry against the scalar
// reference bit for bit. A deviation is a bug in the kernel, never a
// tolerance to document. The screens (screen.go) are the one exception, and
// no distance comes out of them: they use FMA in float32 to prove which
// rows a distance kernel need not see.
package vecmath

import "os"

// NoSIMDEnv is the environment variable that forces the scalar kernels.
// Any value other than empty, "0" or "false" disables SIMD dispatch; it is
// read once at package init.
const NoSIMDEnv = "ANSMET_NO_SIMD"

// prefetchLines is how many 64 B lines of a row Prefetch asks for. A beam
// hop knows every row it will compare before it compares the first, so the
// traversal hints them all and the kernel then runs over lines already on
// their way (DESIGN.md, "Hot-path performance"). The depth is a constant,
// not a knob, picked from the sweep recorded under "Traversal locality" in
// `git show 91bacf1:EXPERIMENTS.md`: on 8-line rows (SIFT, dim 128) the
// whole row wins — 8 lines are 2–9 % ahead of 4 and 10 % ahead of 2 — and
// on 60-line rows (GIST, dim 960), where the hardware streamer takes over
// after the first lines, 2 to 4 lines are 4 % ahead of 8 while 8 still is
// not behind no hint.
const prefetchLines = 8

// Impl bundles one complete implementation of the hot kernels, as selected
// by the dispatch table. The exported methods apply the same input
// validation as the package-level kernels, so tests can run any
// implementation — not just the active one — under the identical contract.
type Impl struct {
	// Name identifies the implementation: "scalar", "avx2".
	Name string

	squaredL2      func(a, b []float32) float64
	dot            func(a, b []float32) float64
	blockSumsTotal func(contrib, blockSums []float64, firstBlk, lastBlk int) float64
	rows           rowKernels    // the typed row kernels, see rowkernels.go
	rows4          rowKernels4   // and their four-row forms
	runs           rowKernelsRun // and their run forms
	screens        rowScreens    // the screens of the float types, see screen.go
}

// SquaredL2 runs this implementation's squared-L2 kernel under the package
// length contract (panics on mismatch).
func (im Impl) SquaredL2(a, b []float32) float64 {
	checkPair("SquaredL2", a, b)
	return im.squaredL2(a, b)
}

// Dot runs this implementation's dot kernel under the package length
// contract (panics on mismatch).
func (im Impl) Dot(a, b []float32) float64 {
	checkPair("Dot", a, b)
	return im.dot(a, b)
}

// BlockSumsTotal runs this implementation's fused bound-update kernel under
// the package geometry contract (panics on bad block geometry).
func (im Impl) BlockSumsTotal(contrib, blockSums []float64, firstBlk, lastBlk int) float64 {
	checkBlocks(contrib, blockSums, firstBlk, lastBlk)
	return im.blockSumsTotal(contrib, blockSums, firstBlk, lastBlk)
}

// scalarImpl is the portable reference implementation; it is always the
// first table entry and the fallback on every platform.
var scalarImpl = Impl{
	Name:           "scalar",
	squaredL2:      scalarSquaredL2,
	dot:            scalarDot,
	blockSumsTotal: scalarBlockSumsTotal,
	rows:           scalarRows,
	rows4:          allFourOf(scalarRows),
	runs:           allRunOf(scalarRows),
}

// Active returns the implementation the package-level kernels dispatch to,
// as selected at init by CPU detection and the ANSMET_NO_SIMD override.
func Active() Impl {
	return activeImpl()
}

// simdDisabledByEnv reports whether ANSMET_NO_SIMD requests the scalar
// kernels. Called once at init by the per-arch dispatch setup.
func simdDisabledByEnv() bool {
	switch os.Getenv(NoSIMDEnv) {
	case "", "0", "false":
		return false
	}
	return true
}
