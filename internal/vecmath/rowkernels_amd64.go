//go:build amd64 && !purego

package vecmath

// Assembly stubs of the typed row kernels (kernels_amd64.s; the contract is
// in rowkernels.go). The float ones share one body (FLOATROWS) and differ
// in how elements are widened; the fp16 pair needs F16C next to AVX2, and
// the fp32 pair also serves SquaredL2 and Dot (dispatch_amd64.go). The
// integer ones are integer SIMD.

//go:noescape
func squaredL2U8AVX2(a, b []byte) float64

//go:noescape
func dotU8AVX2(a, b []byte) float64

//go:noescape
func squaredL2I8AVX2(a, b []byte) float64

//go:noescape
func dotI8AVX2(a, b []byte) float64

//go:noescape
func squaredL2F16AVX2(a, b []byte) float64

//go:noescape
func dotF16AVX2(a, b []byte) float64

//go:noescape
func squaredL2BF16AVX2(a, b []byte) float64

//go:noescape
func dotBF16AVX2(a, b []byte) float64

//go:noescape
func squaredL2F32AVX2(a, b []byte) float64

//go:noescape
func dotF32AVX2(a, b []byte) float64

// The four-row kernels (FLOATROWS4 and INTROWS4 in kernels_amd64.s).

//go:noescape
func squaredL2U8x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

//go:noescape
func dotU8x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

//go:noescape
func squaredL2I8x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

//go:noescape
func dotI8x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

//go:noescape
func squaredL2F16x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

//go:noescape
func dotF16x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

//go:noescape
func squaredL2BF16x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

//go:noescape
func dotBF16x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

//go:noescape
func squaredL2F32x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

//go:noescape
func dotF32x4AVX2(q []byte, rows *[4][]byte, out *[4]float64)

// The run kernels (FLOATROWS4 and INTROWS4 in a loop): rows holds
// len(out)·len(q) bytes and len(out) is a multiple of four.

//go:noescape
func squaredL2U8RunAVX2(q, rows []byte, out []float64)

//go:noescape
func dotU8RunAVX2(q, rows []byte, out []float64)

//go:noescape
func squaredL2I8RunAVX2(q, rows []byte, out []float64)

//go:noescape
func dotI8RunAVX2(q, rows []byte, out []float64)

//go:noescape
func squaredL2F16RunAVX2(q, rows []byte, out []float64)

//go:noescape
func dotF16RunAVX2(q, rows []byte, out []float64)

//go:noescape
func squaredL2BF16RunAVX2(q, rows []byte, out []float64)

//go:noescape
func dotBF16RunAVX2(q, rows []byte, out []float64)

//go:noescape
func squaredL2F32RunAVX2(q, rows []byte, out []float64)

//go:noescape
func dotF32RunAVX2(q, rows []byte, out []float64)

// avx2Rows is the AVX2 level's typed table on a CPU with these features:
// without F16C the fp16 rows keep the scalar kernels, everything else is
// SIMD all the same.
func avx2Rows(f cpuFeatures) rowKernels {
	t := rowKernels{
		Uint8:    {squaredL2U8AVX2, dotU8AVX2},
		Int8:     {squaredL2I8AVX2, dotI8AVX2},
		Float16:  {squaredL2F16AVX2, dotF16AVX2},
		BFloat16: {squaredL2BF16AVX2, dotBF16AVX2},
		Float32:  {squaredL2F32AVX2, dotF32AVX2},
	}
	if !f.hasF16C {
		t[Float16] = scalarRows[Float16]
	}
	return t
}

// avx2Rows4 is avx2Rows' four-row table: without F16C the fp16 rows call
// their scalar kernels four times, everything else is SIMD all the same.
func avx2Rows4(f cpuFeatures) rowKernels4 {
	t := rowKernels4{
		Uint8:    {squaredL2U8x4AVX2, dotU8x4AVX2},
		Int8:     {squaredL2I8x4AVX2, dotI8x4AVX2},
		Float16:  {squaredL2F16x4AVX2, dotF16x4AVX2},
		BFloat16: {squaredL2BF16x4AVX2, dotBF16x4AVX2},
		Float32:  {squaredL2F32x4AVX2, dotF32x4AVX2},
	}
	if !f.hasF16C {
		t[Float16] = allFourOf(scalarRows)[Float16]
	}
	return t
}

// avx2Runs is avx2Rows' run table: the assembly loop over each four rows,
// the one-row kernel over the last 0–3. Without F16C the fp16 rows run
// their scalar kernel row by row, everything else is SIMD all the same.
func avx2Runs(f cpuFeatures) rowKernelsRun {
	one := avx2Rows(f)
	t := rowKernelsRun{
		Uint8:    {runOfFours(squaredL2U8RunAVX2, one[Uint8][0]), runOfFours(dotU8RunAVX2, one[Uint8][1])},
		Int8:     {runOfFours(squaredL2I8RunAVX2, one[Int8][0]), runOfFours(dotI8RunAVX2, one[Int8][1])},
		Float16:  {runOfFours(squaredL2F16RunAVX2, one[Float16][0]), runOfFours(dotF16RunAVX2, one[Float16][1])},
		BFloat16: {runOfFours(squaredL2BF16RunAVX2, one[BFloat16][0]), runOfFours(dotBF16RunAVX2, one[BFloat16][1])},
		Float32:  {runOfFours(squaredL2F32RunAVX2, one[Float32][0]), runOfFours(dotF32RunAVX2, one[Float32][1])},
	}
	if !f.hasF16C {
		t[Float16] = allRunOf(scalarRows)[Float16]
	}
	return t
}

// runOfFours is the run kernel of an assembly loop over whole fours and
// its one-row kernel k for the rows left over.
func runOfFours(fours RowKernelRun, k RowKernel) RowKernelRun {
	return func(q, rows []byte, out []float64) {
		w, n := len(q), len(out)&^3
		if n > 0 {
			fours(q, rows[:n*w], out[:n])
		}
		for i := n; i < len(out); i++ {
			out[i] = k(q, rows[i*w:(i+1)*w])
		}
	}
}
