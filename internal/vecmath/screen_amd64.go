//go:build amd64 && !purego

package vecmath

// Assembly stubs of the screen kernels (SCREENDOT and SCREENL2 in
// kernels_amd64.s; the contract and the proof are in screen.go). Each takes
// n rows, a multiple of four, of stride bytes laid end to end and returns
// their survivor bits. The Head kernels take float32 rows' heads and norms
// (HEADSTART in kernels_amd64.s; the proof is in screen.go, "The head
// screen").

//go:noescape
func screenDotHeadAVX2(plan []float32, heads []byte, rho, nu []float32, n, stride, body int, e0, qn, qk, bound float64) uint64

//go:noescape
func screenL2HeadAVX2(plan []float32, heads []byte, rho, nu []float32, n, stride, body int, c, e0, r float64) uint64

//go:noescape
func screenDotF16AVX2(plan []float32, rows []byte, n, stride, body, tail int, k, e0, bound float64) uint64

//go:noescape
func screenL2F16AVX2(plan []float32, rows []byte, n, stride, body, tail int, c, e0, bound float64) uint64

//go:noescape
func screenDotBF16AVX2(plan []float32, rows []byte, n, stride, body, tail int, k, e0, bound float64) uint64

//go:noescape
func screenL2BF16AVX2(plan []float32, rows []byte, n, stride, body, tail int, c, e0, bound float64) uint64

// avx2Screens is the AVX2 level's screen table on a CPU with these
// features: none without FMA, and no fp16 screen without F16C.
func avx2Screens(f cpuFeatures) rowScreens {
	var t rowScreens
	if !f.hasFMA {
		return t
	}
	t[Float32] = [2]RowScreen{headL2Of(screenL2HeadAVX2), headDotOf(screenDotHeadAVX2)}
	t[BFloat16] = [2]RowScreen{screenOf(screenL2BF16AVX2), screenOf(screenDotBF16AVX2)}
	if f.hasF16C {
		t[Float16] = [2]RowScreen{screenOf(screenL2F16AVX2), screenOf(screenDotF16AVX2)}
	}
	return t
}
