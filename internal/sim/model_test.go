package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/hnsw"
	"ansmet/internal/trace"
)

// TestModelRunRejectsBadInput: Run checks raw queries before any engine sees
// them — a short query and a NaN component are errors naming the query, k = 0
// and ef < k are errors too — and on good input it is RunHNSW over the
// queries quantized to the element type.
func TestModelRunRejectsBadInput(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 200, 3, 9)
	ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(ds.Rows(), p.Metric, ix, core.DefaultSystemConfig(core.NDPETOpt))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(sys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	with := func(qi int, edit func(q []float32) []float32) [][]float32 {
		qs := make([][]float32, len(ds.Queries))
		for i, q := range ds.Queries {
			qs[i] = append([]float32(nil), q...)
		}
		qs[qi] = edit(qs[qi])
		return qs
	}
	for _, c := range []struct {
		name    string
		queries [][]float32
		k, ef   int
		want    string
	}{
		{"short", with(1, func(q []float32) []float32 { return q[:10] }), 10, 40, "query 1 has dim 10, want 128"},
		{"NaN", with(2, func(q []float32) []float32 { q[3] = float32(math.NaN()); return q }), 10, 40, "query 2 component 3 is NaN"},
		{"k=0", ds.Queries, 0, 40, "need 0 < k <= ef (k=0 ef=40)"},
		{"ef<k", ds.Queries, 10, 5, "need 0 < k <= ef (k=10 ef=5)"},
	} {
		run, err := m.Run(c.queries, c.k, c.ef)
		if err == nil || !strings.Contains(err.Error(), c.want) || run != nil {
			t.Errorf("%s: run %v, err %v, want an error containing %q", c.name, run != nil, err, c.want)
		}
	}

	raw := with(0, func(q []float32) []float32 { q[0] += 0.4; return q }) // off the u8 grid
	got, err := m.Run(raw, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	quant := make([][]float32, len(raw))
	for i, q := range raw {
		quant[i] = make([]float32, len(q))
		for d, x := range q {
			quant[i][d] = p.Elem.Quantize(x)
		}
	}
	if want := m.RunHNSW(quant, 10, 40); !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("Run over raw queries ≠ RunHNSW over quantized ones:\n%v\n%v", got.Results, want.Results)
	}
}

func TestReplicationWiredIntoSystem(t *testing.T) {
	p := dataset.ProfileByName("GIST")
	ds := dataset.Generate(p, 400, 2, 23)
	ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(ds.Rows(), p.Metric, ix, core.DefaultSystemConfig(core.NDPBase))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ReplicateTopLayers = 4
	m, err := NewModel(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Timing.Part.Groups() > 1 && m.Timing.Part.ReplicatedCount() == 0 {
		t.Error("top-layer replication not applied")
	}
}

// TestStreamAndRecall: Stream is the run's traces repeated to at least n
// queries and replayed once, and a run of n or more queries keeps its own
// report; Recall is the mean of dataset.RecallAtK over the run's queries.
func TestStreamAndRecall(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 300, 5, 3)
	ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(ds.Rows(), p.Metric, ix, core.DefaultSystemConfig(core.NDPETOpt))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(sys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := m.RunHNSW(ds.Queries, 10, 40)
	for _, n := range []int{0, 1, 5} {
		if got := m.Stream(run, n); got != run.Report {
			t.Errorf("Stream(%d) over 5 queries: a new report, want the run's", n)
		}
	}
	for n, reps := range map[int]int{6: 2, 10: 2, 11: 3, 96: 20} {
		var traces []*trace.Query
		for range reps {
			traces = append(traces, run.Traces...)
		}
		if got, want := m.Stream(run, n), Run(m.Timing, traces); !reflect.DeepEqual(got, want) {
			t.Errorf("Stream(%d): %d queries, makespan %v; want %d, %v",
				n, len(got.QueryLatencyNs), got.MakespanNs, len(want.QueryLatencyNs), want.MakespanNs)
		}
	}

	gt := ds.GroundTruth(10)
	want := 0.0
	for qi, ids := range run.IDs() {
		want += dataset.RecallAtK(ids, gt[qi])
	}
	if got := run.Recall(gt); got != want/5 || got <= 0 {
		t.Errorf("Recall %v, want %v", got, want/5)
	}
}
