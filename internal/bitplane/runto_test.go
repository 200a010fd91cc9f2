package bitplane

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// The two stepping loops RunTo replaced, as the RunTo calls their callers now
// make: RunBound held the last line back (the tiered pipeline's never-fully-
// fetch rule, now its caller's clamp), RunETCapped did not; a negative cap
// meant none.
func parentRunBound(b *Bounder, data []byte, stop float64, maxLines int) (float64, int) {
	limit := b.Layout().LinesPerVector() - 1
	if maxLines >= 0 && maxLines < limit {
		limit = maxLines
	}
	return b.RunTo(data, stop, limit)
}

func parentRunETCapped(b *Bounder, data []byte, stop float64, maxLines int) (float64, int) {
	if maxLines < 0 {
		maxLines = b.Layout().LinesPerVector()
	}
	return b.RunTo(data, stop, maxLines)
}

// TestRunToMatchesParents replays, on seeded vectors, the (stop, limit)
// shapes the parent's RunBound and RunETCapped were called with — one call,
// the tiered pipeline's depth-then-ceiling resumption, the adaptive compare's
// doubling resumption — and compares every (bound bits, lines) pair with the
// digest recorded from those two functions at commit c3b3fc7.
func TestRunToMatchesParents(t *testing.T) {
	const want = "c996ebdc2f0eb07b8de388721d1bb2fc3d742915b1b19289cb9ab9ee3311f45a"
	h := sha256.New()
	r := stats.NewRNG(11)
	for _, cfg := range testConfigs() {
		for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
			dim := 96
			l := MustLayout(cfg.et, dim, cfg.sched)
			total := l.LinesPerVector()
			b := NewBounder(l, m, 0)
			q := makeVec(r, cfg.et, dim)
			b.ResetQuery(q)
			buf := make([]byte, l.VectorBytes())
			for trial := 0; trial < 12; trial++ {
				v := makeVec(r, cfg.et, dim)
				l.Transform(codesOf(cfg.et, v), buf)
				exact := m.Distance(q, v)
				for _, stop := range []float64{math.Inf(1), exact, exact - 0.3*math.Abs(exact), exact - 0.8*math.Abs(exact)} {
					for _, lim := range []int{-1, 0, 1, 2, 3, total - 1, total, total + 5} {
						for _, run := range []func(*Bounder, []byte, float64, int) (float64, int){parentRunBound, parentRunETCapped} {
							b.Reset()
							lb, lines := run(b, buf, stop, lim)
							fmt.Fprintf(h, "%x %d ", math.Float64bits(lb), lines)
							// Resume to a ceiling, then by doubling to the end.
							lb, lines = run(b, buf, stop, 4)
							fmt.Fprintf(h, "%x %d ", math.Float64bits(lb), lines)
							for c := 2; c <= 2*total; c *= 2 {
								lb, lines = run(b, buf, stop, c)
								fmt.Fprintf(h, "%x %d ", math.Float64bits(lb), lines)
							}
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, recorded %s", got, want)
	}
}
