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
// meant none. data holds exactly one vector, so its length gives the line
// count.
func parentRunBound(b *Bounder, data []byte, stop float64, maxLines int) (float64, int) {
	limit := len(data)/LineBytes - 1
	if maxLines >= 0 && maxLines < limit {
		limit = maxLines
	}
	return b.RunTo(data, stop, limit)
}

func parentRunETCapped(b *Bounder, data []byte, stop float64, maxLines int) (float64, int) {
	if maxLines < 0 {
		maxLines = len(data) / LineBytes
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

// parentRunETLocal is the Bounder.RunETLocal loop of commit 56e9479: the
// reference for the two RunTo calls ETEngine.compareExact makes instead.
func parentRunETLocal(b *Bounder, data []byte, threshold, localThreshold float64) (lb float64, lines, linesLocal int) {
	if localThreshold < threshold {
		localThreshold = threshold
	}
	total := len(data) / LineBytes
	lines, linesLocal = -1, -1
	for b.nextLine < total {
		i := b.nextLine
		lb = b.ConsumeNext(data[i*LineBytes : (i+1)*LineBytes])
		if lines < 0 && lb > threshold {
			lines = b.nextLine
		}
		if lb > localThreshold {
			linesLocal = b.nextLine
			break
		}
	}
	if lines < 0 {
		if linesLocal >= 0 {
			lines = linesLocal
		} else {
			lines = total
		}
		lb = b.LB()
	}
	if linesLocal < 0 {
		linesLocal = total
	}
	return lb, lines, linesLocal
}

// runToLocal is ETEngine.compareExact's composition: RunTo the global
// threshold, then on to the local one unless the same line crossed both.
func runToLocal(b *Bounder, data []byte, threshold, local float64) (lb float64, lines, linesLocal int) {
	total := len(data) / LineBytes
	lb, lines = b.RunTo(data, threshold, total)
	linesLocal = lines
	if !(lb > local) {
		lb, linesLocal = b.RunTo(data, local, total)
	}
	return lb, lines, linesLocal
}

// TestRunToLocalMatchesParent compares (bound bits, lines, linesLocal) of
// the two-RunTo composition with the parent's loop, for every (global,
// local) pair drawn from each vector's own bound trajectory — the bounds
// after each line, the midpoints between them, ±Inf — so local = global,
// local < global (clamped), one line crossing both and a threshold never
// reached all occur, and are counted to make sure they do.
func TestRunToLocalMatchesParent(t *testing.T) {
	r := stats.NewRNG(13)
	var equal, clamped, oneLine, never int
	for _, cfg := range testConfigs() {
		for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
			dim := 96
			l := MustLayout(cfg.et, dim, cfg.sched)
			total := l.LinesPerVector()
			ref, got := NewBounder(l, m, 0), NewBounder(l, m, 0)
			q := makeVec(r, cfg.et, dim)
			ref.ResetQuery(q)
			got.ResetQuery(q)
			buf := make([]byte, l.VectorBytes())
			for trial := 0; trial < 3; trial++ {
				l.Transform(codesOf(cfg.et, makeVec(r, cfg.et, dim)), buf)
				ref.Reset()
				ths := []float64{math.Inf(-1), ref.LB(), math.Inf(1)}
				for i := 0; i < total; i++ {
					prev := ref.LB()
					lb := ref.ConsumeNext(buf[i*LineBytes : (i+1)*LineBytes])
					ths = append(ths, lb)
					if mid := prev + (lb-prev)/2; !math.IsNaN(mid) {
						ths = append(ths, mid)
					}
				}
				for _, th := range ths {
					for _, local := range ths {
						ref.Reset()
						wantLB, wantLines, wantLocal := parentRunETLocal(ref, buf, th, local)
						got.Reset()
						lb, lines, linesLocal := runToLocal(got, buf, th, local)
						if math.Float64bits(lb) != math.Float64bits(wantLB) || lines != wantLines || linesLocal != wantLocal {
							t.Fatalf("%v/%v/%v th %v local %v: (%v, %d, %d), parent (%v, %d, %d)",
								cfg.et, cfg.sched, m, th, local, lb, lines, linesLocal, wantLB, wantLines, wantLocal)
						}
						switch {
						case local == th:
							equal++
						case local < th:
							clamped++
						case lines == linesLocal && lines < total:
							oneLine++
						}
						if linesLocal == total && !(lb > local) {
							never++
						}
					}
				}
			}
		}
	}
	t.Logf("local=global %d, clamped %d, one line crossing both %d, never reached %d", equal, clamped, oneLine, never)
	if equal == 0 || clamped == 0 || oneLine == 0 || never == 0 {
		t.Errorf("cases not all covered: local=global %d, clamped %d, one line crossing both %d, never reached %d",
			equal, clamped, oneLine, never)
	}
}
