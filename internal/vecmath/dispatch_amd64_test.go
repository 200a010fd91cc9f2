//go:build amd64 && !purego

package vecmath

import "testing"

// TestChooseLevel pins the feature→level mapping: the ANSMET_NO_SIMD
// kill-switch always wins, ANSMET_SIMD=scalar forces the scalar kernels,
// and every other preference falls back to the automatic choice.
func TestChooseLevel(t *testing.T) {
	cases := []struct {
		f      cpuFeatures
		noSIMD bool
		pref   string
		want   int
	}{
		// Automatic choice.
		{cpuFeatures{}, false, "", levelScalar},
		{cpuFeatures{hasAVX2: true}, false, "", levelAVX2},
		// Kill-switch beats everything, including an explicit preference.
		{cpuFeatures{hasAVX2: true}, true, "", levelScalar},
		{cpuFeatures{hasAVX2: true}, true, "avx2", levelScalar},
		{cpuFeatures{}, true, "", levelScalar},
		// Preferences, honoured when runnable.
		{cpuFeatures{hasAVX2: true}, false, "avx2", levelAVX2},
		{cpuFeatures{hasAVX2: true}, false, "scalar", levelScalar},
		// Unavailable or unknown preferences fall back to automatic.
		{cpuFeatures{}, false, "avx2", levelScalar},
		{cpuFeatures{hasAVX2: true}, false, "avx512", levelAVX2},
		{cpuFeatures{hasAVX2: true}, false, "neon", levelAVX2},
	}
	for _, c := range cases {
		if got := chooseLevel(c.f, c.noSIMD, c.pref); got != c.want {
			t.Errorf("chooseLevel(%+v, noSIMD=%v, pref=%q) = %d, want %d",
				c.f, c.noSIMD, c.pref, got, c.want)
		}
	}
	// The live table must agree with the live detection + overrides.
	if got, want := kernelLevel, chooseLevel(features, simdDisabledByEnv(), simdPreference()); got != want {
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
