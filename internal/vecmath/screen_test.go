package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// screenTypes are the element types a screen may exist for: the half
// types' screens read the rows, float32's their heads.
var screenTypes = []ElemType{Float32, Float16, BFloat16}

// screenDims are the row lengths the screen tests cover: every length from
// 1 to 17 (shorter than a step, one step, a step and every tail) and the
// served 100 and 960.
var screenDims = func() []int {
	var d []int
	for i := 1; i <= 17; i++ {
		d = append(d, i)
	}
	return append(d, 100, 960)
}()

// The screen fuzz's input shapes.
const (
	screenOrdinary = iota
	screenDuplicates
	screenOneULP
	screenSubnormal
	screenHuge
	screenCancel
	screenBits
	screenShapes
	// Three more for float32 rows' heads: every element's low half all ones
	// (the largest residual its head leaves), that at magnitudes near the
	// largest, where ‖q‖ρ is far past float32's range, and rows of the
	// shapes above with every low half zero, so ρ is 0 and the rounding
	// margin alone decides.
	screenLowOnes = iota - 1
	screenHugeLowOnes
	screenHeadExact
	headShapes
)

// screenCase draws a query and n rows of dim elements of et, laid end to
// end, in one of the shapes above.
func screenCase(rng *rand.Rand, et ElemType, shape, dim, n int) (q, run []byte) {
	w := et.Bytes()
	encode := func(v []float32) []byte {
		for i := range v {
			v[i] = et.Quantize(v[i])
		}
		row, _ := et.AppendRow(nil, v)
		return row
	}
	ordinary := func(scale float64) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64() * scale)
		}
		return v
	}
	// nudge moves each element of row by one step of its encoding's
	// magnitude, up or down or not at all.
	nudge := func(row []byte) []byte {
		row = append([]byte(nil), row...)
		for i := 0; i < dim; i++ {
			var p [4]byte
			copy(p[:w], row[i*w:])
			code := binary.LittleEndian.Uint32(p[:])
			switch rng.Intn(3) {
			case 0:
				code++
			case 1:
				code--
			}
			binary.LittleEndian.PutUint32(p[:], code)
			copy(row[i*w:(i+1)*w], p[:w])
		}
		finitePattern(et, row)
		return row
	}
	// magnitude bits of a subnormal and the largest exponent of the type
	subMask, maxExp := map[ElemType]uint32{Float32: 0x807fffff, Float16: 0x83ff, BFloat16: 0x807f}[et], map[ElemType]int{Float32: 127, Float16: 15, BFloat16: 127}[et]
	lowOnes := func(r []byte) []byte {
		for i := 0; i < dim; i++ {
			binary.LittleEndian.PutUint16(r[4*i:], 0xffff)
		}
		return r
	}
	row := func() []byte {
		switch shape {
		case screenLowOnes:
			return lowOnes(encode(ordinary(math.Ldexp(1, rng.Intn(21)-10))))
		case screenHugeLowOnes:
			r := lowOnes(encode(ordinary(1)))
			for i := 0; i < dim; i++ { // exponent 252–254, the sign kept
				b := binary.LittleEndian.Uint32(r[4*i:])
				binary.LittleEndian.PutUint32(r[4*i:], b&0x807fffff|uint32(252+rng.Intn(3))<<23)
			}
			return r
		case screenSubnormal:
			r := randomRow(rng, et, dim)
			for i := 0; i < dim; i++ {
				if rng.Intn(4) == 0 {
					continue // some normal values among them
				}
				var p [4]byte
				copy(p[:w], r[i*w:])
				binary.LittleEndian.PutUint32(p[:], binary.LittleEndian.Uint32(p[:])&subMask)
				copy(r[i*w:(i+1)*w], p[:w])
			}
			return r
		case screenHuge:
			v := make([]float32, dim)
			for i := range v {
				v[i] = float32(math.Ldexp(1+rng.Float64(), maxExp-rng.Intn(3)))
				if rng.Intn(2) == 0 {
					v[i] = -v[i]
				}
			}
			return encode(v)
		case screenBits:
			return randomRow(rng, et, dim)
		}
		return encode(ordinary(math.Ldexp(1, rng.Intn(21)-10)))
	}
	q = row()
	base := row()
	for i := 0; i < n; i++ {
		var r []byte
		drawn := shape
		if shape == screenHeadExact {
			drawn = []int{screenOrdinary, screenDuplicates, screenOneULP, screenCancel}[rng.Intn(4)]
		}
		switch drawn {
		case screenDuplicates:
			r = [][]byte{q, base}[rng.Intn(2)]
		case screenOneULP:
			r = nudge([][]byte{q, base}[rng.Intn(2)])
		case screenCancel:
			// q·x with terms of ± one size that all but cancel: xᵢ ≈ ±C/qᵢ.
			vq := et.DecodeRow(q, nil)
			v := make([]float32, dim)
			c := math.Ldexp(1, rng.Intn(11)-5)
			for j := range v {
				if vq[j] != 0 {
					v[j] = float32(float64(1-2*(j%2)) * c / float64(vq[j]) * (1 + 1e-3*rng.NormFloat64()))
				}
			}
			r = encode(v)
		default:
			r = row()
		}
		if shape == screenHeadExact {
			r = append([]byte(nil), r...)
			for j := 0; j < dim; j++ {
				binary.LittleEndian.PutUint16(r[4*j:], 0)
			}
		}
		run = append(run, r...)
	}
	return q, run
}

// screenInput is what a screen of et reads of run, rows of dim elements
// laid end to end: the rows themselves, or for float32 rows their heads and
// norms (Head), as a float32 slab's head plane holds them.
func screenInput(et ElemType, run []byte, dim int) (screened []byte, rho, nu []float32) {
	if et != Float32 {
		return run, nil, nil
	}
	n, hb := len(run)/(4*dim), HeadBytes(dim)
	screened, rho, nu = make([]byte, hb*n), make([]float32, n), make([]float32, n)
	for i := range rho {
		rho[i], nu[i] = Head(run[4*dim*i:4*dim*(i+1)], screened[hb*i:hb*(i+1)])
	}
	return screened, rho, nu
}

// checkScreen screens run against bounds at, one float64 step above and
// one below, each row's float64 kernel value, and at values well past the
// run's spread, under every implementation that has a screen for et and m,
// and fails unless every cleared bit belongs to a row whose kernel value
// lies strictly past the bound and no bit past the run is set. It returns
// how many rows were cleared.
func checkScreen(t *testing.T, label string, et ElemType, m Metric, q, run []byte) (cleared int) {
	t.Helper()
	w := len(q)
	n := len(run) / w
	screened, rho, nu := screenInput(et, run, w/et.Bytes())
	for _, im := range Implementations() {
		screen := im.RowScreen(et, m)
		if screen == nil {
			continue
		}
		kern := im.RowKernel(et, m)
		vals := make([]float64, n)
		var bounds []float64
		for i := range vals {
			vals[i] = kern(q, run[i*w:(i+1)*w])
			bounds = append(bounds, vals[i], math.Nextafter(vals[i], math.Inf(1)), math.Nextafter(vals[i], math.Inf(-1)))
			bounds = append(bounds, 2*vals[i], vals[i]/2, -vals[i])
		}
		bounds = append(bounds, 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64)
		var sq ScreenQuery
		sq.Prepare(et, m, q)
		for _, b := range bounds {
			mask := screen(&sq, screened, rho, nu, b)
			if n < 64 && mask>>n != 0 {
				t.Fatalf("%s: %s %v %v dim %d: mask %#x has bits past the run's %d rows", label, im.Name, et, m, w/et.Bytes(), mask, n)
			}
			for i, v := range vals {
				if mask>>i&1 != 0 {
					continue
				}
				cleared++
				if past := v > b; m != L2 {
					past = v < b
					if !past {
						t.Fatalf("%s: %s %v %v dim %d: row %d of %d rejected at bound %v (%#x), its kernel value %v (%#x) is not below it",
							label, im.Name, et, m, w/et.Bytes(), i, n, b, math.Float64bits(b), v, math.Float64bits(v))
					}
				} else if !past {
					t.Fatalf("%s: %s %v %v dim %d: row %d of %d rejected at bound %v (%#x), its kernel value %v (%#x) is not above it",
						label, im.Name, et, m, w/et.Bytes(), i, n, b, math.Float64bits(b), v, math.Float64bits(v))
				}
			}
		}
	}
	return cleared
}

// FuzzScreenNeverRejectsAdmitted fuzzes the half types' screens'
// soundness: for fp16 and bf16 rows, every metric and implementation with a
// screen, a row whose bit the screen clears has a float64 kernel value
// strictly past the bound. The runs hold 1 to 64 rows of every length in
// screenDims, drawn in every shape: ordinary rows, exact duplicates, rows
// one encoding step apart, subnormals, magnitudes near the type's largest
// (where the float32 pass overflows), and inner products whose terms all
// but cancel, plus arbitrary finite bit patterns; the bounds sit at each
// row's kernel value and one float64 step either side of it.
// FuzzHeadScreenNeverRejectsAdmitted is float32's.
func FuzzScreenNeverRejectsAdmitted(f *testing.F) {
	for shape := range screenShapes {
		for d := range screenDims {
			f.Add(int64(shape*100+d), uint8(shape), uint8(d), uint8(d*5+shape))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, dimSel, rows uint8) {
		fuzzScreen(t, []ElemType{Float16, BFloat16}, seed, int(shape)%screenShapes, dimSel, rows)
	})
}

// FuzzHeadScreenNeverRejectsAdmitted is FuzzScreenNeverRejectsAdmitted for
// float32 rows, which the screen reads through their heads and residual
// norms: every shape there, and rows whose low halves are all ones, the
// largest residual a head leaves, at ordinary magnitudes and near the
// largest, where ‖q‖ρ is far past float32's range. The scan's own
// identity test draws its rows in the same shapes (screenRows in the root
// package's scan_test.go).
func FuzzHeadScreenNeverRejectsAdmitted(f *testing.F) {
	for shape := range headShapes {
		for d := range screenDims {
			f.Add(int64(shape*100+d), uint8(shape), uint8(d), uint8(d*5+shape))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, dimSel, rows uint8) {
		fuzzScreen(t, []ElemType{Float32}, seed, int(shape)%headShapes, dimSel, rows)
	})
}

// fuzzScreen is the two fuzz targets' body: a run of 1 to 64 rows (16 at
// dim 960) of each type, in one shape, checked under every metric.
func fuzzScreen(t *testing.T, types []ElemType, seed int64, shape int, dimSel, rows uint8) {
	rng := rand.New(rand.NewSource(seed))
	dim := screenDims[int(dimSel)%len(screenDims)]
	n := 1 + int(rows)%64
	if dim == 960 {
		n = 1 + int(rows)%16 // a long row's run is checked at 3·n bounds per implementation
	}
	for _, et := range types {
		q, run := screenCase(rng, et, shape, dim, n)
		for _, m := range []Metric{L2, InnerProduct, Cosine} {
			checkScreen(t, "fuzz", et, m, q, run)
		}
	}
}

// TestScreenRejectsFarRows: the screens are sound on ordinary rows and
// also do their work there — a bound well inside the run's spread clears
// the bits of most whole fours, and one past every row clears them all —
// over runs at byte offsets 0 to 3 from their allocation.
func TestScreenRejectsFarRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4949))
	for _, et := range screenTypes {
		for _, m := range []Metric{L2, InnerProduct} {
			screen := Active().RowScreen(et, m)
			if screen == nil {
				t.Skipf("no %v screen at the %s level", et, Active().Name)
			}
			kern := Active().RowKernel(et, m)
			for _, dim := range []int{8, 13, 100, 960} {
				for off := 0; off <= 3; off++ {
					q, run := screenCase(rng, et, screenOrdinary, dim, 64)
					run = append(make([]byte, off), run...)[off:]
					if got := checkScreen(t, "far", et, m, q, run); got == 0 {
						t.Fatalf("%v %v dim %d: the screen rejected no row at any bound", et, m, dim)
					}
					w := len(q)
					lo, hi := math.Inf(1), math.Inf(-1)
					for i := 0; i < 64; i++ {
						v := kern(q, run[i*w:(i+1)*w])
						lo, hi = min(lo, v), max(hi, v)
					}
					// past every row by a tenth of the spread
					bound := lo - (hi-lo)/10
					if m != L2 {
						bound = hi + (hi-lo)/10
					}
					var sq ScreenQuery
					sq.Prepare(et, m, q)
					screened, rho, nu := screenInput(et, run, dim)
					if mask := screen(&sq, screened, rho, nu, bound); mask != 0 {
						t.Fatalf("%v %v dim %d: bound %v past every row in [%v, %v] left survivors %#x", et, m, dim, bound, lo, hi, mask)
					}
				}
			}
		}
	}
}

// TestScreenShortRunsAndRows: rows after a run's last whole four and rows
// shorter than ScreenMinDim always survive, and a run of 64 rows has all 64
// bits to give.
func TestScreenShortRunsAndRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, et := range screenTypes {
		screen := Active().RowScreen(et, L2)
		if screen == nil {
			t.Skipf("no %v screen at the %s level", et, Active().Name)
		}
		for _, dim := range []int{1, 7, 8, 9} {
			for _, n := range []int{1, 3, 4, 5, 7, 63, 64} {
				q, run := screenCase(rng, et, screenOrdinary, dim, n)
				var sq ScreenQuery
				sq.Prepare(et, L2, q)
				screened, rho, nu := screenInput(et, run, dim)
				mask := screen(&sq, screened, rho, nu, -1) // every row's value is above -1
				want := uint64(1)<<n - 1
				if dim >= ScreenMinDim {
					want &^= uint64(1)<<(n&^3) - 1
				}
				if mask != want {
					t.Fatalf("%v dim %d, %d rows: mask %#x, want %#x", et, dim, n, mask, want)
				}
			}
		}
	}
}
