package prefixelim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ansmet/internal/bitplane"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// The two stepping loops RunTo replaced, as RunTo calls: RunBound's negative
// cap meant none, RunET never had one.
func parentRunBound(b *OutlierBounder, data []byte, stop float64, maxLines int) (float64, int) {
	if maxLines < 0 {
		maxLines = b.Lines()
	}
	return b.RunTo(data, stop, maxLines)
}

func parentRunET(b *OutlierBounder, data []byte, stop float64, _ int) (float64, int) {
	return b.RunTo(data, stop, b.Lines())
}

// TestRunToMatchesParents is bitplane's test of the same name for the
// outlier encoding: every (bound bits, lines) pair of RunBound — one call and
// resumed — and of RunET, against the digest recorded from those two
// functions at commit c3b3fc7.
func TestRunToMatchesParents(t *testing.T) {
	const want = "a5863dbea0486bdf45cd8387978d5d2e7407b9f6ea7c0c1d06c6c0d29060c71a"
	h := sha256.New()
	r := stats.NewRNG(12)
	for _, cfg := range []Config{
		{Elem: vecmath.Int8, Dim: 40, PrefixLen: 2, PrefixVal: 0x2},
		{Elem: vecmath.Uint8, Dim: 200, PrefixLen: 3, PrefixVal: 0},
		{Elem: vecmath.Float32, Dim: 96, PrefixLen: 6, PrefixVal: 0x2f},
	} {
		for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
			b := NewOutlierBounder(cfg, m)
			total := b.Lines()
			gen := func() []float32 {
				v := make([]float32, cfg.Dim)
				for d := range v {
					switch cfg.Elem {
					case vecmath.Uint8:
						v[d] = float32(r.Intn(256))
					case vecmath.Int8:
						v[d] = float32(r.Intn(256) - 128)
					default:
						v[d] = float32(r.NormFloat64() * 10)
					}
				}
				return v
			}
			q := gen()
			b.ResetQuery(q)
			buf := make([]byte, total*bitplane.LineBytes)
			for trial := 0; trial < 12; trial++ {
				v := gen()
				cfg.EncodeOutlier(cfg.Elem.EncodeVector(v, nil), buf)
				exact := m.Distance(q, v)
				for _, stop := range []float64{math.Inf(1), exact, exact - 0.3*math.Abs(exact), exact - 0.8*math.Abs(exact)} {
					for _, lim := range []int{-1, 0, 1, 2, total - 1, total, total + 5} {
						b.Reset()
						lb, lines := parentRunBound(b, buf, stop, lim)
						fmt.Fprintf(h, "%x %d ", math.Float64bits(lb), lines)
						lb, lines = parentRunBound(b, buf, stop, 3) // resumed to a ceiling
						fmt.Fprintf(h, "%x %d ", math.Float64bits(lb), lines)
						lb, lines = parentRunET(b, buf, stop, 0) // and to the end
						fmt.Fprintf(h, "%x %d ", math.Float64bits(lb), lines)
					}
					b.Reset()
					lb, lines := parentRunET(b, buf, stop, 0)
					fmt.Fprintf(h, "%x %d ", math.Float64bits(lb), lines)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, recorded %s", got, want)
	}
}
