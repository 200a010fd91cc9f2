package core

import (
	"math"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/layout"
	"ansmet/internal/precision"
	"ansmet/internal/prefixelim"
	"ansmet/internal/rows"
	"ansmet/internal/vecmath"
)

// precisionStoreCase is one (vectors, elem, metric) combination for the
// adaptive-precision property tests. The dataset profile supplies the
// vector geometry; elem overrides its element type so every encoding —
// Uint8, Int8, Float16, BFloat16, Float32 — gets covered even though the
// paper profiles only span three of them.
type precisionStoreCase struct {
	name    string
	profile string
	elem    vecmath.ElemType
	metric  vecmath.Metric
}

func precisionCases() []precisionStoreCase {
	return []precisionStoreCase{
		{"uint8", "SIFT", vecmath.Uint8, vecmath.L2},
		{"int8", "SPACEV", vecmath.Int8, vecmath.L2},
		{"float16", "DEEP", vecmath.Float16, vecmath.L2},
		{"bfloat16", "GloVe", vecmath.BFloat16, vecmath.InnerProduct},
		{"float32", "GIST", vecmath.Float32, vecmath.L2},
	}
}

// buildPrecisionCase materialises the case: element-quantized vectors, a
// store, and a precision map fitted on the store's layout.
func buildPrecisionCase(t *testing.T, tc precisionStoreCase, n int) (*Store, *precision.Map, *dataset.Dataset) {
	t.Helper()
	p := dataset.ProfileByName(tc.profile)
	ds := dataset.Generate(p, n, 4, 19)
	for _, v := range ds.Vectors {
		for d := range v {
			v[d] = tc.elem.Quantize(v[d])
		}
	}
	st, err := BuildStore(rows.MustPack(ds.Vectors, tc.elem),
		layout.SimpleHeuristicSchedule(tc.elem), prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := precision.Build(ds.Vectors, st.Layout, 7)
	if err != nil {
		t.Fatal(err)
	}
	return st, pm, ds
}

// TestAdaptiveEscalatedToFullDepthBitwiseExact: for every element type, an
// adaptive comparison that escalates all the way to the full vector
// reports a distance bitwise identical to the exact path — the losslessly
// encoded planes leave no rounding residue to diverge on. An effectively
// unbounded margin with the threshold pinned at the exact distance forces
// the escalation loop to the last line on every id.
func TestAdaptiveEscalatedToFullDepthBitwiseExact(t *testing.T) {
	for _, tc := range precisionCases() {
		t.Run(tc.name, func(t *testing.T) {
			st, pm, ds := buildPrecisionCase(t, tc, 300)
			exact := st.NewETEngine(tc.metric)
			ad := st.NewETEngine(tc.metric)
			ad.SetPrecision(pm, 0, 1e12)
			full := st.Layout.LinesPerVector()
			for _, q := range ds.Queries {
				exact.StartQuery(q)
				ad.StartQuery(q)
				for id := uint32(0); id < uint32(len(ds.Vectors)); id += 7 {
					want := exact.Compare(id, math.Inf(1))
					if want.Dist == 0 {
						// The margin window is margin·|threshold| wide; a zero
						// threshold collapses it and escalation legitimately
						// stops at the static depth.
						continue
					}
					got := ad.Compare(id, want.Dist)
					if got.Lines != full {
						t.Fatalf("id %d: escalation stopped at %d/%d lines", id, got.Lines, full)
					}
					if got.Dist != want.Dist {
						t.Fatalf("id %d: full-depth adaptive dist %v != exact %v (bitwise)",
							id, got.Dist, want.Dist)
					}
					if !got.Accepted {
						t.Fatalf("id %d: exact-distance threshold not accepted: %+v", id, got)
					}
				}
			}
		})
	}
}

// TestAdaptiveCompareSound: adaptive rejections are never wrong (the
// reported bound really proves Dist > threshold) and any reported distance
// is a valid lower bound of the exact one — the only relaxation adaptive
// mode makes is that margin-slack accepts may under-report.
func TestAdaptiveCompareSound(t *testing.T) {
	for _, tc := range precisionCases() {
		t.Run(tc.name, func(t *testing.T) {
			st, pm, ds := buildPrecisionCase(t, tc, 300)
			exact := st.NewETEngine(tc.metric)
			ad := st.NewETEngine(tc.metric)
			ad.SetPrecision(pm, 1, 0.1)
			for _, q := range ds.Queries {
				exact.StartQuery(q)
				ad.StartQuery(q)
				// A mid-population threshold so both accept and reject paths
				// run: the exact distance of an arbitrary fixed id.
				th := exact.Compare(uint32(len(ds.Vectors)/2), math.Inf(1)).Dist
				for id := uint32(0); id < uint32(len(ds.Vectors)); id += 5 {
					want := exact.Compare(id, math.Inf(1))
					got := ad.Compare(id, th)
					tol := 1e-9 * math.Max(1, math.Abs(want.Dist))
					if got.Dist > want.Dist+tol {
						t.Fatalf("id %d: adaptive bound %v exceeds exact distance %v",
							id, got.Dist, want.Dist)
					}
					if !got.Accepted && want.Dist <= th-tol {
						t.Fatalf("id %d: false reject — exact %v <= threshold %v but bound %v rejected",
							id, want.Dist, th, got.Dist)
					}
				}
			}
		})
	}
}

// TestTieredAdaptiveBudget1MatchesExact: with the static depth map, depth
// bias and escalation margin all active, Budget 1 keeps the tiered
// pipeline byte-identical to ExactKNN — per-vector stage-1 depths only
// coarsen bounds, and the lossless-cut proof never depended on bound
// tightness.
func TestTieredAdaptiveBudget1MatchesExact(t *testing.T) {
	for _, tc := range precisionCases() {
		t.Run(tc.name, func(t *testing.T) {
			st, pm, ds := buildPrecisionCase(t, tc, 500)
			eng := st.NewETEngine(tc.metric)
			opt := TieredOpts{
				Budget: 1, MaxBoundLines: -1,
				Precision: pm, DepthBias: 1, EscalateMargin: 0.2,
			}
			for qi, q := range ds.Queries {
				want, _ := eng.ExactKNN(q, 10)
				got, stats := eng.TieredKNNInto(nil, q, 10, opt, nil)
				if len(got) != len(want) {
					t.Fatalf("q%d: %d results, want %d", qi, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("q%d result %d: %+v != %+v", qi, j, got[j], want[j])
					}
				}
				if stats.Pool == 0 || stats.BoundLines == 0 {
					t.Fatalf("q%d: implausible stats %+v", qi, stats)
				}
			}
		})
	}
}

// TestTieredNilPrecisionByteIdentity: TieredOpts.Precision == nil must
// reproduce the fixed-depth scan exactly, stats included — the adaptive
// plumbing is invisible until a map is installed. A typed nil
// (*precision.Map)(nil), a non-nil Depths, means the same, there and in
// SetPrecision.
func TestTieredNilPrecisionByteIdentity(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 600, 4, 23)
	st, err := BuildStore(ds.Rows(),
		layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := st.NewETEngine(p.Metric)
	b := st.NewETEngine(p.Metric)
	for _, pm := range []Depths{nil, (*precision.Map)(nil)} {
		for qi, q := range ds.Queries {
			ra, sa := a.TieredKNNInto(nil, q, 10, TieredOpts{Budget: 0.9}, nil)
			rb, sb := b.TieredKNNInto(nil, q, 10,
				TieredOpts{Budget: 0.9, Precision: pm, EscalateMargin: 0.3}, nil)
			if sa != sb {
				t.Fatalf("%T q%d: stats diverged %+v != %+v", pm, qi, sa, sb)
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("%T q%d result %d: %+v != %+v", pm, qi, j, ra[j], rb[j])
				}
			}
		}
	}
	b.SetPrecision((*precision.Map)(nil), 0, 0.3)
	for qi, q := range ds.Queries {
		a.StartQuery(q)
		b.StartQuery(q)
		for id := uint32(0); id < 600; id += 7 {
			if ra, rb := a.Compare(id, 1), b.Compare(id, 1); ra != rb {
				t.Fatalf("typed-nil SetPrecision q%d id %d: %+v != %+v", qi, id, rb, ra)
			}
		}
	}
}
