package precision

import (
	"math"
	"testing"

	"ansmet/internal/bitplane"
	"ansmet/internal/dataset"
	"ansmet/internal/layout"
	"ansmet/internal/vecmath"
)

// buildTestMap fits a map over a generated profile; shared by the map tests.
func buildTestMap(t *testing.T, name string, n int, seed uint64) (*Map, *bitplane.Layout, *dataset.Dataset) {
	t.Helper()
	p := dataset.ProfileByName(name)
	ds := dataset.Generate(p, n, 4, 11)
	lay := bitplane.MustLayout(p.Elem, p.Dim, layout.SimpleHeuristicSchedule(p.Elem))
	m, err := Build(ds.Vectors, lay, seed)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m, lay, ds
}

func TestBuildDeterministic(t *testing.T) {
	a, _, _ := buildTestMap(t, "DEEP", 600, 3)
	b, _, _ := buildTestMap(t, "DEEP", 600, 3)
	if a.Clusters != b.Clusters {
		t.Fatalf("cluster counts differ: %d vs %d", a.Clusters, b.Clusters)
	}
	for id := 0; id < 600; id++ {
		if a.Lines(uint32(id)) != b.Lines(uint32(id)) {
			t.Fatalf("id %d: depth differs across identical builds", id)
		}
	}
}

func TestMapDepthInvariants(t *testing.T) {
	for _, name := range []string{"SIFT", "DEEP", "GloVe", "GIST"} {
		m, lay, ds := buildTestMap(t, name, 500, 5)
		total := lay.LinesPerVector()
		if m.TotalLines() != total {
			t.Errorf("%s: TotalLines %d != layout %d", name, m.TotalLines(), total)
		}
		maxDepth := total - 1
		if maxDepth < 1 {
			maxDepth = 1
		}
		var sum float64
		for id := range ds.Vectors {
			d := m.Lines(uint32(id))
			if d < 1 || d > maxDepth {
				t.Fatalf("%s id %d: depth %d outside [1, %d]", name, id, d, maxDepth)
			}
			sum += float64(d)
		}
		if mean := sum / float64(len(ds.Vectors)); math.Abs(mean-m.MeanLines()) > 1e-9 {
			t.Errorf("%s: MeanLines %v != recomputed %v", name, m.MeanLines(), mean)
		}
		for c, d := range m.PartitionLines {
			if d < 1 || d > maxDepth {
				t.Errorf("%s cluster %d: partition depth %d outside [1, %d]", name, c, d, maxDepth)
			}
		}
	}
}

// TestRadiusOrdersDepth checks the core heuristic: across partitions,
// depth is monotone in radius (tight clusters never fetch deeper than
// diffuse ones).
func TestRadiusOrdersDepth(t *testing.T) {
	m, _, _ := buildTestMap(t, "GIST", 800, 9)
	for a := range m.Radius {
		for b := range m.Radius {
			if m.Radius[a] < m.Radius[b] && m.PartitionLines[a] > m.PartitionLines[b] {
				t.Fatalf("cluster %d (r=%.4f) deeper than cluster %d (r=%.4f): %d > %d lines",
					a, m.Radius[a], b, m.Radius[b], m.PartitionLines[a], m.PartitionLines[b])
			}
		}
	}
}

func TestLinesForBitsRoundTrip(t *testing.T) {
	for _, elem := range []vecmath.ElemType{vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.BFloat16, vecmath.Float32} {
		lay := bitplane.MustLayout(elem, 64, layout.SimpleHeuristicSchedule(elem))
		total := lay.LinesPerVector()
		if got := lay.LinesForBits(0); got != 0 {
			t.Errorf("%v: LinesForBits(0) = %d, want 0", elem, got)
		}
		prev := 0
		for bits := 1; bits <= lay.SuffixBits(); bits++ {
			l := lay.LinesForBits(bits)
			if l < prev {
				t.Fatalf("%v: LinesForBits not monotone at %d bits: %d < %d", elem, bits, l, prev)
			}
			if l > total {
				t.Fatalf("%v: LinesForBits(%d) = %d exceeds %d lines", elem, bits, l, total)
			}
			// Fetching l lines must actually reveal >= bits.
			if got := lay.BitsAtLines(l); got < bits {
				t.Fatalf("%v: BitsAtLines(LinesForBits(%d)=%d) = %d < %d", elem, bits, l, got, bits)
			}
			// And l is minimal: one line fewer reveals fewer bits.
			if l > 0 {
				if got := lay.BitsAtLines(l - 1); got >= bits {
					t.Fatalf("%v: LinesForBits(%d)=%d not minimal (%d lines reveal %d bits)",
						elem, bits, l, l-1, got)
				}
			}
			prev = l
		}
		if got := lay.LinesForBits(lay.SuffixBits() + 100); got != total {
			t.Errorf("%v: LinesForBits(overflow) = %d, want saturation at %d", elem, got, total)
		}
	}
}

func TestTunerClampsAndDefaults(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0.1, 0.5}, {0.5, 0.5}, {0.9, 0.9}, {1.5, 0.999},
	} {
		tn := NewTuner(tc.in)
		if tn.Target() != tc.want {
			t.Errorf("NewTuner(%v).Target() = %v, want %v", tc.in, tn.Target(), tc.want)
		}
		if b := tn.Budget(); math.Abs(b-(1+tc.want)/2) > 1e-12 {
			t.Errorf("NewTuner(%v).Budget() = %v, want %v", tc.in, b, (1+tc.want)/2)
		}
		if tn.DepthBias() != 0 {
			t.Errorf("fresh tuner depth bias %d != 0", tn.DepthBias())
		}
	}
}

func TestMarginForTarget(t *testing.T) {
	if m := MarginForTarget(0.999); m != 0.02 {
		t.Errorf("tight target margin %v, want floor 0.02", m)
	}
	if m := MarginForTarget(0.5); m != 0.6 {
		t.Errorf("loose target margin %v, want cap 0.6", m)
	}
	if a, b := MarginForTarget(0.9), MarginForTarget(0.95); a <= b {
		t.Errorf("margin not decreasing in target: %v <= %v", a, b)
	}
}

// TestTunerBudgetController drives the controller with synthetic risk
// observations: sustained high risk must push the budget to 1, sustained
// zero risk must relax it — but never below the target floor.
func TestTunerBudgetController(t *testing.T) {
	tn := NewTuner(0.9)
	for i := 0; i < 20*tuneStride; i++ {
		tn.Observe(10, 100, 10) // every result at risk
	}
	if b := tn.Budget(); b < 0.999 {
		t.Fatalf("budget %v after sustained risk, want ~1", b)
	}
	for i := 0; i < 200*tuneStride; i++ {
		tn.Observe(10, 100, 0) // no risk at all
	}
	if b := tn.Budget(); b > tn.Target()+1e-9 || b < tn.Target()-1e-9 {
		t.Fatalf("budget %v after sustained calm, want relaxed to the %v floor", b, tn.Target())
	}
}

// TestTunerDepthBiasController drives the pool watermarks: fat pools must
// raise the bias up to the cap, lean pools must return it to zero.
func TestTunerDepthBiasController(t *testing.T) {
	tn := NewTuner(0.9)
	for i := 0; i < 50*tuneStride; i++ {
		tn.Observe(10, 10*int(poolHighWater)*2, 0)
	}
	if b := tn.DepthBias(); b != maxDepthBias {
		t.Fatalf("depth bias %d after sustained fat pools, want cap %d", b, maxDepthBias)
	}
	for i := 0; i < 50*tuneStride; i++ {
		tn.Observe(10, 10, 0)
	}
	if b := tn.DepthBias(); b != 0 {
		t.Fatalf("depth bias %d after sustained lean pools, want 0", b)
	}
}

func TestTunerObserveDeterministic(t *testing.T) {
	a, b := NewTuner(0.9), NewTuner(0.9)
	seq := []struct{ pool, atRisk int }{{50, 1}, {400, 3}, {20, 0}, {80, 2}, {500, 9}, {10, 0}, {60, 1}, {90, 4}, {30, 0}}
	for i := 0; i < 100; i++ {
		s := seq[i%len(seq)]
		a.Observe(10, s.pool, s.atRisk)
		b.Observe(10, s.pool, s.atRisk)
	}
	if a.Budget() != b.Budget() || a.DepthBias() != b.DepthBias() {
		t.Fatalf("identical observation sequences diverged: budget %v vs %v, depth bias %d vs %d",
			a.Budget(), b.Budget(), a.DepthBias(), b.DepthBias())
	}
}

func TestTunerObserveAllocs(t *testing.T) {
	tn := NewTuner(0.9)
	if n := testing.AllocsPerRun(200, func() { tn.Observe(10, 120, 1) }); n != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = tn.Budget(); _ = tn.DepthBias(); _ = tn.Margin() }); n != 0 {
		t.Fatalf("tuner reads allocate %v/op, want 0", n)
	}
}
