//go:build amd64 && !purego

package vecmath

import (
	"bytes"
	"math"
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
	// The four-row table likewise: without F16C only the fp16 entries
	// change, to ones that run anywhere and agree with the scalar kernel.
	entry4 := func(k RowKernel4) uintptr { return reflect.ValueOf(k).Pointer() }
	with4, without4 := avx2Rows4(cpuFeatures{hasAVX2: true, hasF16C: true}), avx2Rows4(cpuFeatures{hasAVX2: true})
	q, r := []byte{0x00, 0x3c, 0x01, 0x80}, []byte{0x00, 0xc0, 0xff, 0x7b} // fp16 1 and the smallest negative subnormal; -2 and 65504
	for _, et := range []ElemType{Uint8, Int8, Float16, BFloat16, Float32} {
		for m := range with4[et] {
			if same := entry4(with4[et][m]) == entry4(without4[et][m]); same == (et == Float16) {
				t.Errorf("%v four-row kernel %d: same with and without F16C = %v", et, m, same)
			}
		}
	}
	for m, k := range without4[Float16] {
		var out [4]float64
		k(q, &[4][]byte{r, q, r, q}, &out)
		for i, row := range [4][]byte{r, q, r, q} {
			if want := scalarRows[Float16][m](q, row); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Errorf("fp16 four-row kernel %d without F16C: row %d = %v, scalar %v", m, i, out[i], want)
			}
		}
	}
	// And the run table: without F16C the fp16 runs are the scalar kernel
	// row by row.
	for m, k := range avx2Runs(cpuFeatures{hasAVX2: true})[Float16] {
		rows := [][]byte{r, q, r, q, r} // a whole four and one left over
		out := make([]float64, len(rows))
		k(q, bytes.Join(rows, nil), out)
		for i, row := range rows {
			if want := scalarRows[Float16][m](q, row); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Errorf("fp16 run kernel %d without F16C: row %d = %v, scalar %v", m, i, out[i], want)
			}
		}
	}
	// Every implementation the table advertises must actually be runnable:
	// detection gated on OS state, so just exercise each once.
	for _, im := range implementations() {
		if got := im.SquaredL2([]float32{1, 2}, []float32{3, 5}); got != 13 {
			t.Errorf("%s: SquaredL2 probe = %v, want 13", im.Name, got)
		}
	}
}

// TestScreenTable pins which rows have a screen: the float types with FMA
// beside AVX2, fp16 only with F16C too, the integer types never, and the
// portable level none at all.
func TestScreenTable(t *testing.T) {
	for _, c := range []struct {
		f    cpuFeatures
		want []ElemType
	}{
		{cpuFeatures{hasAVX2: true, hasF16C: true, hasFMA: true}, []ElemType{Float16, BFloat16, Float32}},
		{cpuFeatures{hasAVX2: true, hasFMA: true}, []ElemType{BFloat16, Float32}},
		{cpuFeatures{hasAVX2: true, hasF16C: true}, nil},
	} {
		table := avx2Screens(c.f)
		var got []ElemType
		for _, et := range allTypes {
			if table[et][0] != nil && table[et][1] != nil {
				got = append(got, et)
			} else if table[et][0] != nil || table[et][1] != nil {
				t.Errorf("%+v: %v has a screen under one metric only", c.f, et)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%+v: screens for %v, want %v", c.f, got, c.want)
		}
	}
	for _, et := range allTypes {
		if scalarImpl.RowScreen(et, L2) != nil || scalarImpl.RowScreen(et, InnerProduct) != nil {
			t.Errorf("the scalar level has a %v screen", et)
		}
	}
}
