//go:build amd64 && !purego

package vecmath

import (
	"reflect"
	"testing"
)

// TestChooseLevel pins the feature→level mapping: the ANSMET_NO_SIMD
// kill-switch always wins, otherwise AVX2 whenever the CPU runs it.
func TestChooseLevel(t *testing.T) {
	cases := []struct {
		f      cpuFeatures
		noSIMD bool
		want   int
	}{
		{cpuFeatures{}, false, levelScalar},
		{cpuFeatures{hasAVX2: true, hasF16C: true}, false, levelAVX2},
		{cpuFeatures{hasAVX2: true, hasF16C: true}, true, levelScalar},
		{cpuFeatures{}, true, levelScalar},
		// AVX2 without F16C stays at the AVX2 level; only the fp16 rows fall
		// back (below). F16C without AVX2 is nothing.
		{cpuFeatures{hasAVX2: true}, false, levelAVX2},
		{cpuFeatures{hasF16C: true}, false, levelScalar},
	}
	for _, c := range cases {
		if got := chooseLevel(c.f, c.noSIMD); got != c.want {
			t.Errorf("chooseLevel(%+v, noSIMD=%v) = %d, want %d", c.f, c.noSIMD, got, c.want)
		}
	}
	// The live table must agree with the live detection + override.
	if got, want := kernelLevel, chooseLevel(features, simdDisabledByEnv()); got != want {
		t.Errorf("kernelLevel = %d, chooseLevel(features, env) = %d", got, want)
	}
	// Without F16C the AVX2 table holds the scalar fp16 kernels and the SIMD
	// ones for every other type.
	entry := func(k RowKernel) uintptr { return reflect.ValueOf(k).Pointer() }
	with, without := avx2Rows(cpuFeatures{hasAVX2: true, hasF16C: true}), avx2Rows(cpuFeatures{hasAVX2: true})
	for _, et := range []ElemType{Uint8, Int8, Float16, BFloat16, Float32} {
		for m := range with[et] {
			same := entry(with[et][m]) == entry(without[et][m])
			scalar := entry(without[et][m]) == entry(scalarRows[et][m])
			if want := et == Float16; same == want || scalar != want {
				t.Errorf("%v kernel %d without F16C: same as with = %v, scalar = %v", et, m, same, scalar)
			}
		}
	}
	// Every implementation the table advertises must actually be runnable:
	// detection gated on OS state, so just exercise each once.
	for _, im := range Implementations() {
		if got := im.SquaredL2([]float32{1, 2}, []float32{3, 5}); got != 13 {
			t.Errorf("%s: SquaredL2 probe = %v, want 13", im.Name, got)
		}
	}
}
