package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelCase is one kernel call the benchmarks time and TestKernelAllocs
// counts.
type kernelCase struct {
	name string
	dim  int
	op   func() float64
	rows int // rows one call compares, when it is a row kernel: reported per row
}

// distanceKernelCases: the full-distance kernels for every metric at three
// representative dimensions, through the active dispatch.
func distanceKernelCases() []kernelCase {
	var cases []kernelCase
	for _, m := range []Metric{L2, InnerProduct, Cosine} {
		for _, dim := range []int{128, 384, 960} {
			rng := rand.New(rand.NewSource(int64(dim)))
			x := make([]float32, dim)
			y := make([]float32, dim)
			for d := 0; d < dim; d++ {
				x[d] = rng.Float32()
				y[d] = rng.Float32()
			}
			cases = append(cases, kernelCase{fmt.Sprintf("%v-%d", m, dim), dim, func() float64 { return m.Distance(x, y) }, 0})
		}
	}
	return cases
}

// kernelImplCases: every kernel implementation in the dispatch table side
// by side (scalar vs AVX2 where the CPU has it) on the two-vector kernels
// and the fused bounder block kernel, at a production dimension. The names
// make per-implementation speedups readable from one run.
func kernelImplCases() []kernelCase {
	const dim = 384
	rng := rand.New(rand.NewSource(77))
	x := make([]float32, dim)
	y := make([]float32, dim)
	contrib := make([]float64, dim)
	blockSums := make([]float64, (dim+BlockDims-1)/BlockDims)
	for d := 0; d < dim; d++ {
		x[d] = rng.Float32()
		y[d] = rng.Float32()
		contrib[d] = rng.Float64()
	}
	var cases []kernelCase
	for _, im := range implementations() {
		cases = append(cases,
			kernelCase{"SquaredL2/" + im.Name, dim, func() float64 { return im.SquaredL2(x, y) }, 0},
			kernelCase{"Dot/" + im.Name, dim, func() float64 { return im.Dot(x, y) }, 0},
			kernelCase{"BlockSumsTotal/" + im.Name, dim, func() float64 {
				return im.BlockSumsTotal(contrib, blockSums, 0, len(blockSums)-1)
			}, 0})
	}
	// The typed row kernels, one arm per element type and implementation at
	// SIFT's and the production dimension: what a compare costs over rows in
	// their own type, next to SquaredL2/<impl> over float32 above.
	for _, rdim := range []int{128, dim} {
		for _, et := range []ElemType{Uint8, Int8, Float16, BFloat16, Float32} {
			a, _ := et.AppendRow(nil, quantized(et, x[:rdim]))
			b, _ := et.AppendRow(nil, quantized(et, y[:rdim]))
			for _, im := range implementations() {
				kern := im.RowKernel(et, L2)
				cases = append(cases, kernelCase{fmt.Sprintf("RowSquaredL2/%v-%d/%s", et, rdim, im.Name), rdim,
					func() float64 { return kern(a, b) }, 1})
			}
			// The four-row form over four distinct rows: its ns/row against
			// RowSquaredL2's is what sharing the query's widening saves.
			four := [4][]byte{b, append([]byte(nil), a...), append([]byte(nil), b...), a}
			var out [4]float64
			for _, im := range implementations() {
				kern4 := im.RowKernel4(et, L2)
				cases = append(cases, kernelCase{fmt.Sprintf("Row4SquaredL2/%v-%d/%s", et, rdim, im.Name), 4 * rdim,
					func() float64 { kern4(a, &four, &out); return out[0] }, 4})
			}
		}
	}
	// The dot's run kernel and both screens over one run of 64 L1-resident
	// rows of each float type (float32 rows through their heads), at GloVe's
	// dimension and the production one: their ns/row is what the exact
	// scan's screen saves where memory does not limit it.
	rng64 := rand.New(rand.NewSource(64))
	for _, rdim := range []int{100, dim} {
		for _, et := range []ElemType{Float16, BFloat16, Float32} {
			v := make([]float32, rdim)
			row := func() []byte {
				for i := range v {
					v[i] = float32(rng64.NormFloat64())
				}
				r, _ := et.AppendRow(nil, quantized(et, v))
				return r
			}
			q := row()
			var run []byte
			for range 64 {
				run = append(run, row()...)
			}
			out := make([]float64, 64)
			for _, im := range implementations() {
				kern := im.RowKernelRun(et, InnerProduct)
				cases = append(cases, kernelCase{fmt.Sprintf("RunDot/%v-%d/%s", et, rdim, im.Name), 64 * rdim,
					func() float64 { kern(q, run, out); return out[0] }, 64})
				screened, rho, nu := screenInput(et, run, rdim)
				for _, m := range []Metric{InnerProduct, L2} {
					if screen := im.RowScreen(et, m); screen != nil {
						sq := new(ScreenQuery)
						sq.Prepare(et, m, q)
						cases = append(cases, kernelCase{fmt.Sprintf("RunScreen%s/%v-%d/%s", map[Metric]string{InnerProduct: "Dot", L2: "L2"}[m], et, rdim, im.Name), 64 * rdim,
							func() float64 { return float64(screen(sq, screened, rho, nu, 0)) }, 64})
					}
				}
			}
		}
	}
	return cases
}

// quantized maps [0,1) samples onto values of et (spread over the integer
// types' range).
func quantized(et ElemType, v []float32) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		if et.Bits() == 8 {
			x = x*200 - 70
		}
		out[i] = et.Quantize(x)
	}
	return out
}

func benchKernels(b *testing.B, cases []kernelCase) {
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(8 * c.dim))
			b.ReportAllocs()
			s := 0.0
			for i := 0; i < b.N; i++ {
				s += c.op()
			}
			if math.IsNaN(s) {
				b.Fatal("impossible")
			}
			if c.rows > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.rows), "ns/row")
			}
		})
	}
}

func BenchmarkDistanceKernels(b *testing.B) { benchKernels(b, distanceKernelCases()) }

func BenchmarkKernelImpls(b *testing.B) { benchKernels(b, kernelImplCases()) }

// TestKernelAllocs: no kernel, through the dispatch or named, allocates.
func TestKernelAllocs(t *testing.T) {
	for _, c := range append(distanceKernelCases(), kernelImplCases()...) {
		if n := testing.AllocsPerRun(100, func() { c.op() }); n != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", c.name, n)
		}
	}
}
