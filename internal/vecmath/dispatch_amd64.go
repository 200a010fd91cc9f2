//go:build amd64 && !purego

package vecmath

// amd64 dispatch: CPU features are probed once at package init with CPUID /
// XGETBV (cpu_amd64.s — no external dependency), and the package-level
// kernels branch on the resulting level. A branch on a package variable
// keeps the call sites direct (//go:noescape assembly stubs, so escape
// analysis still sees allocation-free calls) while remaining a function
// table for introspection via Implementations().
//
// Level selection:
//
//	avx2    — AVX2 and OS-enabled YMM state (XCR0); the default whenever
//	          available
//	scalar  — everything else, or ANSMET_NO_SIMD set

// cpuid executes CPUID with EAX=leaf, ECX=sub (cpu_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX=0, returning XCR0 (cpu_amd64.s). Only
// valid when CPUID.1:ECX reports OSXSAVE.
func xgetbv() (eax, edx uint32)

type cpuFeatures struct {
	hasAVX2 bool
	hasF16C bool // VCVTPH2PS, for the fp16 row kernel; only looked at beside AVX2
	hasFMA  bool // VFMADD231PS, for the screens; only looked at beside AVX2
}

func detectFeatures() cpuFeatures {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return cpuFeatures{}
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
		f16cBit    = 1 << 29
		fmaBit     = 1 << 12
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return cpuFeatures{}
	}
	xcr0, _ := xgetbv()
	const ymmState = 0x6 // XCR0: SSE (bit 1) + AVX YMM (bit 2)
	if xcr0&ymmState != ymmState {
		return cpuFeatures{}
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return cpuFeatures{hasAVX2: ebx7&avx2Bit != 0, hasF16C: ecx1&f16cBit != 0, hasFMA: ecx1&fmaBit != 0}
}

const (
	levelScalar = iota
	levelAVX2
)

var (
	features    = detectFeatures()
	kernelLevel = chooseLevel(features, simdDisabledByEnv())
)

// chooseLevel maps detected features and the ANSMET_NO_SIMD override to a
// dispatch level. Pure function so tests can pin the selection logic
// directly: the override always wins, otherwise AVX2 when runnable here.
func chooseLevel(f cpuFeatures, noSIMD bool) int {
	if noSIMD || !f.hasAVX2 {
		return levelScalar
	}
	return levelAVX2
}

var avx2Impl = Impl{
	Name:           "avx2",
	squaredL2:      squaredL2AVX2,
	dot:            dotAVX2,
	blockSum:       blockSumAVX2,
	blockSumsTotal: blockSumsTotalAVX2,
	rows:           avx2Rows(features),
	rows4:          avx2Rows4(features),
	runs:           avx2Runs(features),
	screens:        avx2Screens(features),
}

func archImpls() []Impl {
	if features.hasAVX2 {
		return []Impl{avx2Impl}
	}
	return nil
}

func activeImpl() Impl {
	if kernelLevel == levelAVX2 {
		return avx2Impl
	}
	return scalarImpl
}

func squaredL2Dispatch(a, b []float32) float64 {
	if kernelLevel == levelAVX2 {
		return squaredL2AVX2(a, b)
	}
	return scalarSquaredL2(a, b)
}

func dotDispatch(a, b []float32) float64 {
	if kernelLevel == levelAVX2 {
		return dotAVX2(a, b)
	}
	return scalarDot(a, b)
}

func blockSumDispatch(terms []float64) float64 {
	if kernelLevel == levelAVX2 {
		return blockSumAVX2(terms)
	}
	return scalarBlockSum(terms)
}

func blockSumsTotalDispatch(contrib, blockSums []float64, firstBlk, lastBlk int) float64 {
	if kernelLevel == levelAVX2 {
		return blockSumsTotalAVX2(contrib, blockSums, firstBlk, lastBlk)
	}
	return scalarBlockSumsTotal(contrib, blockSums, firstBlk, lastBlk)
}

// Prefetch asks the memory system for the first prefetchLines lines of a
// row the caller is about to hand to a row kernel, or for the whole row when
// it is shorter — two lines of a SIFT row (see prefetchLines in dispatch.go).
// It is a hint at every kernel level — PREFETCHT0 is baseline amd64 — and
// changes no result.
func Prefetch(row []byte) { prefetchT0(row, prefetchLines) }
