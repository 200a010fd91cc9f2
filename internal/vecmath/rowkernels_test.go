package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

var rowMetrics = []Metric{L2, InnerProduct}

// rowReference is what a typed kernel must return, bit for bit: the float32
// scalar reference over the decoded values.
func rowReference(t ElemType, m Metric, a, b []byte) float64 {
	va, vb := t.DecodeRow(a, nil), t.DecodeRow(b, nil)
	if m == L2 {
		return scalarSquaredL2(va, vb)
	}
	return scalarDot(va, vb)
}

// checkRowKernels runs every implementation's kernel for t on (a, b) under
// both metrics against the reference, and its four-row kernel on the query a
// and the rows (b, a, b, a) against the one-row kernel.
func checkRowKernels(t *testing.T, label string, et ElemType, a, b []byte) {
	t.Helper()
	for _, m := range rowMetrics {
		want := rowReference(et, m, a, b)
		for _, im := range Implementations() {
			if got := im.RowKernel(et, m)(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %s %v %v over %d bytes = %v (%#x), reference %v (%#x)", label, im.Name, et, m,
					len(a), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if got := Active().RowKernel(et, m)(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: active %v %v = %v, reference %v", label, et, m, got, want)
		}
	}
	checkRowKernel4(t, et, a, &[4][]byte{b, a, b, a})
}

// finitePattern clears one exponent bit of every float element whose
// pattern is an infinity or a NaN, in place: rows never hold those.
func finitePattern(et ElemType, row []byte) {
	for i, x := range et.DecodeRow(row, nil) {
		if x-x == 0 {
			continue
		}
		if et == Float16 {
			row[2*i+1] &^= 0x04
		} else { // bf16 and fp32 keep exponent bits in their top byte
			row[(i+1)*et.Bytes()-1] &^= 0x40
		}
	}
}

// rowSpecials are the element patterns worth meeting more often than chance
// allows: the integer extremes, signed zeros, the smallest subnormals and
// the largest finite values.
var rowSpecials = map[ElemType][]uint32{
	Uint8:    {0, 255, 1, 128},
	Int8:     {0, 0x80, 0x7f, 0xff},
	Float16:  {0, 0x8000, 0x0001, 0x83ff, 0x7bff, 0xfbff, 0x3c00},
	BFloat16: {0, 0x8000, 0x0001, 0x807f, 0x7f7f, 0xff7f, 0x3f80},
	Float32:  {0, 0x80000000, 1, 0x807fffff, 0x7f7fffff, 0xff7fffff, 0x3f800000},
}

// randomRow draws dim elements of type et: arbitrary finite patterns mixed
// with the specials.
func randomRow(rng *rand.Rand, et ElemType, dim int) []byte {
	w := et.Bytes()
	row := make([]byte, dim*w)
	rng.Read(row)
	for i := 0; i < dim; i++ {
		if rng.Intn(4) != 0 {
			continue
		}
		sp := rowSpecials[et]
		var p [4]byte
		binary.LittleEndian.PutUint32(p[:], sp[rng.Intn(len(sp))])
		copy(row[i*w:(i+1)*w], p[:w])
	}
	finitePattern(et, row)
	return row
}

// TestTypedKernelTailsMatchReference is the tail property test of the typed
// kernels: every dimension 0..67 plus 100, 128 and 960, every element type,
// both metrics, every implementation, rows at byte offsets 0..3 of their
// allocation — and the named cases: identical rows, all-zero rows (a dot of
// +0, so the distance is still -0), and the integer lane fold.
func TestTypedKernelTailsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2121))
	dims := []int{100, 128, 960}
	for d := 0; d <= 67; d++ {
		dims = append(dims, d)
	}
	for _, et := range allTypes {
		w := et.Bytes()
		for _, dim := range dims {
			for off := 0; off <= 3; off++ {
				a := append(make([]byte, off), randomRow(rng, et, dim)...)[off:]
				b := append(make([]byte, off), randomRow(rng, et, dim)...)[off:]
				checkRowKernels(t, "random", et, a, b)
				checkRowKernels(t, "identical", et, a, a)
			}
			zero := make([]byte, dim*w)
			checkRowKernels(t, "zero", et, zero, randomRow(rng, et, dim))
			for _, im := range Implementations() {
				if got := im.RowKernel(et, InnerProduct)(zero, zero); math.Float64bits(got) != 0 {
					t.Fatalf("%s %v dim %d: dot of zero rows is %#x, want +0", im.Name, et, dim, math.Float64bits(got))
				}
			}
		}
	}
	// 300 000 elements of 255 against 0: a 32-bit lane of the integer kernels
	// would hold 300000/16 * 130050 = 2.4e9 > 2^31 if it were never folded.
	const long = 300000
	full, zero := make([]byte, long), make([]byte, long)
	for i := range full {
		full[i] = 255
	}
	checkRowKernels(t, "fold u8", Uint8, full, zero)
	checkRowKernels(t, "fold u8 self", Uint8, full, full)
	lo := make([]byte, long)
	for i := range lo {
		lo[i], full[i] = 0x80, 0x7f // -128 against 127
	}
	checkRowKernels(t, "fold i8", Int8, lo, full)
	checkRowKernels(t, "fold i8 self", Int8, lo, lo)
}

// FuzzTypedKernelsMatchReference fuzzes the typed kernels' one contract:
// for every element type, metric and implementation, the kernel over two
// rows returns the bits the float32 scalar reference returns over the
// decoded values. The two inputs are read as rows of each type in turn
// (non-finite float patterns made finite), so the fuzzer walks the whole
// pattern space: subnormals, signed zeros, the largest finite values.
func FuzzTypedKernelsMatchReference(f *testing.F) {
	f.Add([]byte{0, 255, 0x80, 0x7f, 1, 2, 3, 4}, []byte{255, 0, 0x7f, 0x80, 4, 3, 2, 1})
	f.Add(make([]byte, 64), make([]byte, 64))                                                                             // +0 everywhere
	f.Add([]byte{0x00, 0x80, 0x00, 0x80, 0x00, 0x00, 0x00, 0x80}, make([]byte, 8))                                        // -0 against +0
	f.Add([]byte{0x01, 0x00, 0xff, 0x83, 0xff, 0x03, 0x00, 0x04}, []byte{0xff, 0x7b, 0xff, 0xfb, 0x01, 0x80, 0x00, 0x3c}) // fp16 subnormals, ±65504
	f.Add([]byte{0x7f, 0x7f, 0x7f, 0xff, 0xff, 0xff, 0x7f, 0x7f}, []byte{0x7f, 0x7f, 0x7f, 0x7f, 0xff, 0xff, 0x7f, 0xff}) // largest bf16 / fp32
	same := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36}
	f.Add(same, same)
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		for _, et := range allTypes {
			n := min(len(ra), len(rb)) / et.Bytes() * et.Bytes()
			a := append([]byte(nil), ra[:n]...)
			b := append([]byte(nil), rb[:n]...)
			finitePattern(et, a)
			finitePattern(et, b)
			checkRowKernels(t, "fuzz", et, a, b)
		}
	})
}

// FuzzRowKernel4MatchesRowKernel fuzzes the four-row kernels' contract: for
// every implementation, element type and metric, out[i] is the bits of the
// same implementation's one-row kernel on (q, rows[i]) — over four separate
// rows, and over rows that alias (a pair sharing one buffer, one the query
// itself). The seeds cover every dimension from 1 to 63, so every block
// count 0..3 meets every tail length, and GloVe's 100 and GIST's 960.
func FuzzRowKernel4MatchesRowKernel(f *testing.F) {
	for dim := 1; dim <= 63; dim++ {
		f.Add(int64(dim), uint16(dim))
	}
	f.Add(int64(100), uint16(100))
	f.Add(int64(960), uint16(960))
	f.Fuzz(func(t *testing.T, seed int64, dim uint16) {
		if dim == 0 || dim > 2048 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		for _, et := range allTypes {
			q := randomRow(rng, et, int(dim))
			var separate [4][]byte
			for i := range separate {
				separate[i] = randomRow(rng, et, int(dim))
			}
			aliased := [4][]byte{separate[0], q, separate[0], separate[3]}
			checkRowKernel4(t, et, q, &separate)
			checkRowKernel4(t, et, q, &aliased)
		}
	})
}

// checkRowKernel4 runs every implementation's four-row kernels for et on q
// and rows against its one-row kernels.
func checkRowKernel4(t *testing.T, et ElemType, q []byte, rows *[4][]byte) {
	t.Helper()
	for _, m := range rowMetrics {
		for _, im := range Implementations() {
			out := [4]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
			im.RowKernel4(et, m)(q, rows, &out)
			for i, r := range rows {
				if want := im.RowKernel(et, m)(q, r); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s %v %v dim %d: row %d = %v (%#x), RowKernel %v (%#x)", im.Name, et, m,
						len(q)/et.Bytes(), i, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// FuzzRowKernelRunMatchesRowKernel fuzzes the run kernels' contract: for
// every implementation, element type and metric, out[i] of a run of rows
// laid end to end is the bits of the same implementation's one-row kernel
// on (q, row i) — for runs of 0 to 9 rows, so every count of whole fours
// meets every count of leftover rows, with the run's bytes at an offset of
// 0 to 3 from their allocation's start. The seeds cover dims 1 to 40 (every
// tail length, with and without whole blocks) and GloVe's 100.
func FuzzRowKernelRunMatchesRowKernel(f *testing.F) {
	for dim := 1; dim <= 40; dim++ {
		f.Add(int64(dim), uint16(dim), uint8(dim%10), uint8(dim%4))
	}
	f.Add(int64(100), uint16(100), uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, dim uint16, n, off uint8) {
		if dim == 0 || dim > 1024 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		for _, et := range allTypes {
			checkRowKernelRun(t, et, randomRow(rng, et, int(dim)), rng, int(n%10), int(off%4))
		}
	})
}

// TestRowKernelRunMatchesRowKernel is the fuzz target's fixed sweep: dims
// 1..35 and the served 100, 128 and 960, every run length 0..9.
func TestRowKernelRunMatchesRowKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(6464))
	dims := []int{100, 128, 960}
	for d := 1; d <= 35; d++ {
		dims = append(dims, d)
	}
	for _, et := range allTypes {
		for _, dim := range dims {
			for n := 0; n <= 9; n++ {
				checkRowKernelRun(t, et, randomRow(rng, et, dim), rng, n, n%4)
			}
		}
	}
}

// checkRowKernelRun runs every implementation's run kernels for et on q and
// n random rows of its length, laid end to end off bytes into their buffer,
// against its one-row kernels.
func checkRowKernelRun(t *testing.T, et ElemType, q []byte, rng *rand.Rand, n, off int) {
	t.Helper()
	w := len(q)
	run := make([]byte, off, off+n*w)
	for i := 0; i < n; i++ {
		run = append(run, randomRow(rng, et, w/et.Bytes())...)
	}
	run = run[off:]
	for _, m := range rowMetrics {
		for _, im := range Implementations() {
			out := make([]float64, n)
			for i := range out {
				out[i] = math.NaN()
			}
			im.RowKernelRun(et, m)(q, run, out)
			for i := range out {
				if want := im.RowKernel(et, m)(q, run[i*w:(i+1)*w]); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s %v %v dim %d: row %d of %d = %v (%#x), RowKernel %v (%#x)", im.Name, et, m,
						w/et.Bytes(), i, n, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestRowCodec: AppendRow accepts exactly the finite values of the type and
// stores them so DecodeRow returns them; everything else is reported by
// index.
func TestRowCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, et := range allTypes {
		for trial := 0; trial < 200; trial++ {
			want := et.DecodeRow(randomRow(rng, et, 19), nil)
			row, bad := et.AppendRow(nil, want)
			if bad != -1 || len(row) != 19*et.Bytes() {
				t.Fatalf("%v: AppendRow(%v) = %d bytes, bad %d", et, want, len(row), bad)
			}
			got := et.DecodeRow(row, nil)
			for i := range want {
				intZero := want[i] == 0 && et.Bits() == 8
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !intZero {
					t.Fatalf("%v: component %d decodes to %v, stored %v", et, i, got[i], want[i])
				}
			}
		}
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	refused := map[ElemType][]float32{
		Uint8:    {-1, 256, 0.5, nan, inf, -inf},
		Int8:     {-129, 128, 0.5, nan, inf},
		Float16:  {65520, 1e9, 1e-9, 1.0001, nan, inf, -inf},
		BFloat16: {1.001, nan, inf, -inf},
		Float32:  {nan, inf, -inf},
	}
	for et, vals := range refused {
		for _, x := range vals {
			if _, bad := et.AppendRow(nil, []float32{1, x, 2}); bad != 1 {
				t.Errorf("%v: AppendRow accepts %v (bad = %d)", et, x, bad)
			}
		}
	}
}

// TestQuantizeSaturates: a finite input quantizes to a finite value of the
// type — the 16-bit floats stop at ± their largest finite value as the
// integers stop at their range — so whatever Quantize returns for a finite
// input, AppendRow stores.
func TestQuantizeSaturates(t *testing.T) {
	maxBF16 := BF16ToF32(0x7f7f)
	cases := []struct {
		et      ElemType
		in, out float32
	}{
		{Float16, 1e9, 65504}, {Float16, -1e9, -65504}, {Float16, 65520, 65504}, {Float16, 65519, 65504},
		{Float16, math.MaxFloat32, 65504},
		{BFloat16, 3.4e38, maxBF16}, {BFloat16, -3.4e38, -maxBF16}, {BFloat16, math.MaxFloat32, maxBF16},
		{Uint8, 1e9, 255}, {Int8, -1e9, -128},
	}
	for _, c := range cases {
		got := c.et.Quantize(c.in)
		if got != c.out {
			t.Errorf("%v.Quantize(%v) = %v, want %v", c.et, c.in, got, c.out)
		}
		if _, bad := c.et.AppendRow(nil, []float32{got}); bad != -1 {
			t.Errorf("%v: quantized %v is refused as a row value", c.et, got)
		}
	}
	// An infinite input is not a value to saturate: it stays visible to the
	// callers that check for it.
	for _, et := range []ElemType{Float16, BFloat16, Float32} {
		if got := et.Quantize(float32(math.Inf(-1))); !math.IsInf(float64(got), -1) {
			t.Errorf("%v.Quantize(-Inf) = %v", et, got)
		}
	}
}

// TestRowKernelSymmetric: every row kernel is symmetric bit for bit,
// RowKernel(a, b) ≡ RowKernel(b, a), and so is every lane of the four-row
// kernel: out[i] of RowKernel4(q, rows) ≡ RowKernel(rows[i], q) — for every
// element type, metric and implementation, over random rows and rows made
// only of the specials (signed zeros, subnormals, the extremes). HNSW
// construction relies on it: one distance serves both directions of a
// pair (internal/hnsw, the pruning memo).
func TestRowKernelSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4747))
	dims := []int{100, 128, 960}
	for d := 1; d <= 67; d++ {
		dims = append(dims, d)
	}
	for _, et := range allTypes {
		w, sp := et.Bytes(), rowSpecials[et]
		for _, dim := range dims {
			var rs [][]byte
			for i := 0; i < 4; i++ {
				rs = append(rs, randomRow(rng, et, dim))
			}
			for shift := 0; shift < 2; shift++ {
				row := make([]byte, dim*w)
				for j := 0; j < dim; j++ {
					var p [4]byte
					binary.LittleEndian.PutUint32(p[:], sp[(j+shift*3)%len(sp)])
					copy(row[j*w:(j+1)*w], p[:w])
				}
				rs = append(rs, row)
			}
			for _, m := range []Metric{L2, InnerProduct, Cosine} {
				for _, im := range Implementations() {
					k, k4 := im.RowKernel(et, m), im.RowKernel4(et, m)
					for i, a := range rs {
						for _, b := range rs[i+1:] {
							if ab, ba := k(a, b), k(b, a); math.Float64bits(ab) != math.Float64bits(ba) {
								t.Fatalf("%s %v %v dim %d: k(a, b) = %v (%#x), k(b, a) = %v (%#x)", im.Name, et, m, dim,
									ab, math.Float64bits(ab), ba, math.Float64bits(ba))
							}
						}
						four := [4][]byte{rs[(i+1)%len(rs)], rs[(i+2)%len(rs)], rs[(i+3)%len(rs)], rs[(i+4)%len(rs)]}
						var out [4]float64
						k4(a, &four, &out)
						for j, r := range four {
							if want := k(r, a); math.Float64bits(out[j]) != math.Float64bits(want) {
								t.Fatalf("%s %v %v dim %d: lane %d of k4(q, rows) = %v (%#x), k(row, q) = %v (%#x)", im.Name, et, m,
									dim, j, out[j], math.Float64bits(out[j]), want, math.Float64bits(want))
							}
						}
					}
				}
			}
		}
	}
}
