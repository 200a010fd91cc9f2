//go:build amd64 && !purego

package vecmath

import "testing"

// TestChooseLevel pins the feature→level mapping: the ANSMET_NO_SIMD
// kill-switch always wins, otherwise AVX2 whenever the CPU runs it.
func TestChooseLevel(t *testing.T) {
	cases := []struct {
		f      cpuFeatures
		noSIMD bool
		want   int
	}{
		{cpuFeatures{}, false, levelScalar},
		{cpuFeatures{hasAVX2: true}, false, levelAVX2},
		{cpuFeatures{hasAVX2: true}, true, levelScalar},
		{cpuFeatures{}, true, levelScalar},
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
	// Every implementation the table advertises must actually be runnable:
	// detection gated on OS state, so just exercise each once.
	for _, im := range Implementations() {
		if got := im.SquaredL2([]float32{1, 2}, []float32{3, 5}); got != 13 {
			t.Errorf("%s: SquaredL2 probe = %v, want 13", im.Name, got)
		}
	}
}
