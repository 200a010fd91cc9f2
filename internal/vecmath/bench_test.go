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
			cases = append(cases, kernelCase{fmt.Sprintf("%v-%d", m, dim), dim, func() float64 { return m.Distance(x, y) }})
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
	for _, im := range Implementations() {
		cases = append(cases,
			kernelCase{"SquaredL2/" + im.Name, dim, func() float64 { return im.SquaredL2(x, y) }},
			kernelCase{"Dot/" + im.Name, dim, func() float64 { return im.Dot(x, y) }},
			kernelCase{"BlockSumsTotal/" + im.Name, dim, func() float64 {
				return im.BlockSumsTotal(contrib, blockSums, 0, len(blockSums)-1)
			}})
	}
	return cases
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
