package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestDispatchTable pins the shape of the implementation table: the scalar
// reference is always entry 0, names are unique, the active implementation
// is in the table, and the env override is wired through — ANSMET_NO_SIMD
// forces scalar, and otherwise a SIMD entry is active whenever one exists.
// (The exact feature→level policy is pinned per-arch in TestChooseLevel.)
func TestDispatchTable(t *testing.T) {
	impls := Implementations()
	if len(impls) == 0 || impls[0].Name != "scalar" {
		t.Fatalf("Implementations() = %v, want scalar first", implNames(impls))
	}
	seen := map[string]bool{}
	for _, im := range impls {
		if seen[im.Name] {
			t.Errorf("duplicate implementation %q", im.Name)
		}
		seen[im.Name] = true
	}
	active := Active()
	if !seen[active.Name] {
		t.Errorf("active implementation %q not in table %v", active.Name, implNames(impls))
	}
	switch {
	case simdDisabledByEnv():
		if active.Name != "scalar" {
			t.Errorf("%s set but active implementation is %q, want scalar", NoSIMDEnv, active.Name)
		}
	case len(impls) > 1:
		if active.Name == "scalar" {
			t.Errorf("SIMD available (%v) but active implementation is scalar with no override set",
				implNames(impls))
		}
	}
	t.Logf("implementations: %v, active: %s", implNames(impls), active.Name)
}

func implNames(impls []Impl) []string {
	names := make([]string, len(impls))
	for i, im := range impls {
		names[i] = im.Name
	}
	return names
}

// kernelProbe is the fixed input TestForcedScalarDowngrade hashes across
// process boundaries; dimension 37 exercises two full blocks plus a tail.
func kernelProbe() ([]float32, []float32) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float32, 37)
	b := make([]float32, 37)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	return a, b
}

// TestForcedScalarDowngrade re-executes this test binary with
// ANSMET_NO_SIMD=1 and asserts (a) the child's dispatch table actually
// downgraded to scalar, and (b) the child's scalar result is bitwise
// identical to the parent's dispatched (possibly SIMD) result — the
// end-to-end check that the env override is wired through the table and
// changes nothing but speed.
func TestForcedScalarDowngrade(t *testing.T) {
	a, b := kernelProbe()
	if os.Getenv("ANSMET_DOWNGRADE_SUBPROC") == "1" {
		if Active().Name != "scalar" {
			t.Fatalf("subprocess: %s=1 but active implementation is %q", NoSIMDEnv, Active().Name)
		}
		// Stamp the scalar results for the parent to compare bitwise.
		fmt.Printf("PROBE %016x %016x\n",
			math.Float64bits(SquaredL2(a, b)), math.Float64bits(Dot(a, b)))
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestForcedScalarDowngrade$", "-test.v")
	cmd.Env = append(os.Environ(), "ANSMET_DOWNGRADE_SUBPROC=1", NoSIMDEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("subprocess failed: %v\n%s", err, out)
	}
	want := fmt.Sprintf("PROBE %016x %016x",
		math.Float64bits(SquaredL2(a, b)), math.Float64bits(Dot(a, b)))
	if !strings.Contains(string(out), want) {
		t.Errorf("parent (%s) and forced-scalar subprocess disagree bitwise:\nwant line %q\ngot output:\n%s",
			Active().Name, want, out)
	}
}

// testValues32 yields adversarial float32 element values: signed zeros,
// denormals, huge/tiny magnitudes, and quantized values of every element
// type the kernels can see in production.
func testValues32(rng *rand.Rand, et ElemType) float32 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return math.Float32frombits(uint32(rng.Intn(8))) // denormals
	case 3:
		return float32(math.Ldexp(rng.Float64()-0.5, 60))
	case 4:
		return float32(math.Ldexp(rng.Float64()-0.5, -60))
	default:
		return et.Quantize(float32(rng.NormFloat64() * 3))
	}
}

// TestKernelTailsMatchScalar is the exhaustive tail-handling property test:
// for every dimension 0..64 (every non-multiple-of-BlockDims tail length),
// every element type, and unaligned slice offsets 0..3, every available
// implementation must match the scalar BlockedSum-composed reference
// bitwise on SquaredL2 and Dot.
func TestKernelTailsMatchScalar(t *testing.T) {
	impls := Implementations()
	elems := []ElemType{Uint8, Int8, Float16, BFloat16, Float32}
	rng := rand.New(rand.NewSource(99))
	for dim := 0; dim <= 64; dim++ {
		for off := 0; off <= 3; off++ {
			for _, et := range elems {
				backA := make([]float32, dim+off)
				backB := make([]float32, dim+off)
				for i := range backA {
					backA[i] = testValues32(rng, et)
					backB[i] = testValues32(rng, et)
				}
				a := backA[off : off+dim]
				b := backB[off : off+dim]
				wantL2 := refSquaredL2(a, b)
				wantDot := refDot(a, b)
				for _, im := range impls {
					if got := im.SquaredL2(a, b); math.Float64bits(got) != math.Float64bits(wantL2) {
						t.Fatalf("%s SquaredL2 dim=%d off=%d %v: %v (%#x) != reference %v (%#x)",
							im.Name, dim, off, et, got, math.Float64bits(got), wantL2, math.Float64bits(wantL2))
					}
					if got := im.Dot(a, b); math.Float64bits(got) != math.Float64bits(wantDot) {
						t.Fatalf("%s Dot dim=%d off=%d %v: %v (%#x) != reference %v (%#x)",
							im.Name, dim, off, et, got, math.Float64bits(got), wantDot, math.Float64bits(wantDot))
					}
				}
				// The package-level dispatched kernels match too.
				if got := SquaredL2(a, b); math.Float64bits(got) != math.Float64bits(wantL2) {
					t.Fatalf("dispatched SquaredL2 dim=%d off=%d: %v != %v", dim, off, got, wantL2)
				}
				if got := Dot(a, b); math.Float64bits(got) != math.Float64bits(wantDot) {
					t.Fatalf("dispatched Dot dim=%d off=%d: %v != %v", dim, off, got, wantDot)
				}
			}
		}
	}
}

// testValues64 yields adversarial float64 contribution values, including
// signed zeros and infinities (IP contributions over unbounded intervals
// are +Inf in production).
func testValues64(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Ldexp(rng.Float64()-0.5, 600)
	default:
		return rng.NormFloat64()
	}
}

// TestBlockKernelsMatchScalar covers BlockSum for every length 0..2*BlockDims
// and BlockSumsTotal for every dimension 0..64 with every valid touched-block
// subrange, against the scalar reference, bitwise, for every implementation.
// Untouched block subtotals must be preserved exactly and still count toward
// the returned total.
func TestBlockKernelsMatchScalar(t *testing.T) {
	impls := Implementations()
	rng := rand.New(rand.NewSource(1234))
	for n := 0; n <= 2*BlockDims; n++ {
		terms := make([]float64, n)
		for i := range terms {
			terms[i] = testValues64(rng)
		}
		want := scalarBlockSum(terms)
		for _, im := range impls {
			if got := im.BlockSum(terms); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s BlockSum len=%d: %v (%#x) != %v (%#x)",
					im.Name, n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if got := BlockSum(terms); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dispatched BlockSum len=%d: %v != %v", n, got, want)
		}
	}
	for dim := 1; dim <= 64; dim++ {
		contrib := make([]float64, dim)
		for i := range contrib {
			contrib[i] = testValues64(rng)
		}
		nblk := (dim + BlockDims - 1) / BlockDims
		stale := make([]float64, nblk)
		for k := range stale {
			stale[k] = rng.NormFloat64() * 1e6 // sentinel for untouched blocks
		}
		for firstBlk := 0; firstBlk < nblk; firstBlk++ {
			for lastBlk := firstBlk; lastBlk < nblk; lastBlk++ {
				wantDst := make([]float64, nblk)
				copy(wantDst, stale)
				want := scalarBlockSumsTotal(contrib, wantDst, firstBlk, lastBlk)
				for _, im := range impls {
					gotDst := make([]float64, nblk)
					copy(gotDst, stale)
					got := im.BlockSumsTotal(contrib, gotDst, firstBlk, lastBlk)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s BlockSumsTotal dim=%d [%d,%d]: total %v != %v",
							im.Name, dim, firstBlk, lastBlk, got, want)
					}
					for k := range gotDst {
						if math.Float64bits(gotDst[k]) != math.Float64bits(wantDst[k]) {
							t.Fatalf("%s BlockSumsTotal dim=%d [%d,%d]: blockSums[%d] = %v, want %v",
								im.Name, dim, firstBlk, lastBlk, k, gotDst[k], wantDst[k])
						}
					}
				}
			}
		}
	}
}

// TestKernelMismatchPanics asserts the documented ragged-input contract for
// every implementation: a length mismatch always panics (never truncates),
// and BlockSumsTotal rejects bad block geometry.
func TestKernelMismatchPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on invalid input", name)
			}
		}()
		f()
	}
	short := []float32{1}
	long := []float32{1, 2}
	for _, im := range Implementations() {
		im := im
		mustPanic(im.Name+" SquaredL2", func() { im.SquaredL2(short, long) })
		mustPanic(im.Name+" Dot", func() { im.Dot(long, short) })
		mustPanic(im.Name+" BlockSumsTotal geometry", func() {
			im.BlockSumsTotal(make([]float64, 20), make([]float64, 1), 0, 0)
		})
		mustPanic(im.Name+" BlockSumsTotal range", func() {
			im.BlockSumsTotal(make([]float64, 20), make([]float64, 2), 1, 2)
		})
		mustPanic(im.Name+" BlockSumsTotal negative", func() {
			im.BlockSumsTotal(make([]float64, 20), make([]float64, 2), -1, 0)
		})
	}
	mustPanic("SquaredL2", func() { SquaredL2(short, long) })
	mustPanic("Dot", func() { Dot(short, long) })
	mustPanic("BlockSumsTotal", func() {
		BlockSumsTotal(make([]float64, 17), make([]float64, 1), 0, 0)
	})
	// Equal-length calls on empty slices are valid and return +0.
	if got := SquaredL2(nil, nil); got != 0 {
		t.Errorf("SquaredL2(nil, nil) = %v, want 0", got)
	}
	if got := Dot([]float32{}, []float32{}); got != 0 {
		t.Errorf("Dot(empty) = %v, want 0", got)
	}
}

// TestPrefetchIsHarmless: Prefetch is a hint — on every build it accepts any
// row (nil, empty, shorter than a line, unaligned, longer than the depth),
// touches nothing past the row's end that could fault, and changes no value.
func TestPrefetchIsHarmless(t *testing.T) {
	Prefetch(nil)
	Prefetch([]byte{})
	row := make([]byte, 64*prefetchLines*3)
	for i := range row {
		row[i] = byte(i)
	}
	for _, n := range []int{1, 63, 64, 65, 128, 64 * prefetchLines, len(row) - 2} {
		for off := 0; off < 3; off++ {
			Prefetch(row[off : off+n])
		}
	}
	Prefetch(row[len(row)-1:]) // the last byte of the allocation
	for i, x := range row {
		if x != byte(i) {
			t.Fatalf("row[%d] = %v after prefetching", i, x)
		}
	}
}
