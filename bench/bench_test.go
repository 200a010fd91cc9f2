package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.01, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestByWindow(t *testing.T) {
	width := 100 * time.Millisecond
	var done []time.Duration
	var lat []float64
	for w := 0; w < 5; w++ {
		n, ms := 10, 1.0
		if w == 2 {
			n, ms = 3, 9.0
		}
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(w)*width+time.Duration(i)*time.Millisecond)
			lat = append(lat, ms+float64(i)/100)
		}
	}
	done = append(done, 5*width, 7*width) // at and past the end: dropped
	lat = append(lat, 50, 50)
	groups := byWindow(lat, done, 5, width)
	for w, want := range []int{10, 10, 3, 10, 10} {
		if len(groups[w]) != want {
			t.Fatalf("window %d holds %d values, want %d", w, len(groups[w]), want)
		}
	}
}

// A query's floor is the fastest of its repetitions: a burst that slows
// some of them, even most, does not move it, and neither does a sample
// without a measurement.
func TestFloorPerQuery(t *testing.T) {
	ms := time.Millisecond
	query := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	values := []time.Duration{-1, 5 * ms, 9 * ms, 4 * ms, 2 * ms, 9 * ms, 3 * ms, 7 * ms, 8 * ms}
	got := floorPerQuery(query, values, 4, ms) // query 3 was never sent
	want := []float64{3, 2, 8}
	if len(got) != len(want) {
		t.Fatalf("floors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("floors = %v, want %v", got, want)
		}
	}
	if got := mean(got); got != 13.0/3 {
		t.Errorf("mean of floors = %v, want %v", got, 13.0/3)
	}
	if got := minRepetitions(query, 3); got != 3 {
		t.Errorf("least repeated query occurs %d times, want 3", got)
	}
	if got := minRepetitions(query, 4); got != 0 {
		t.Errorf("a query never sent counts %d repetitions, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 0, Name: "request", StartNs: 0, DurNs: 100},
		{ID: 2, Trace: 0, Name: "serve.handler", Parent: 1, StartNs: 10, DurNs: 80},
		{ID: 3, Trace: 0, Name: "ansmet.search", Parent: 2, StartNs: 20, DurNs: 60},
		{ID: 4, Trace: 0, Name: "hnsw.search", Parent: 3, StartNs: 25, DurNs: 50},
		{ID: 5, Trace: 0, Name: "core.compare", Parent: 4, StartNs: 25, DurNs: 30, Count: 3},
		// A fan-out whose shards overlap, one of them sticking out.
		{ID: 6, Trace: 1, Name: "cluster.fanout", StartNs: 200, DurNs: 100},
		{ID: 7, Trace: 1, Name: "cluster.shard", Parent: 6, StartNs: 210, DurNs: 50},
		{ID: 8, Trace: 1, Name: "cluster.shard", Parent: 6, StartNs: 220, DurNs: 60},
		{ID: 9, Trace: 1, Name: "cluster.shard", Parent: 6, StartNs: 290, DurNs: 40},
	}
	self := selfTimes(spans)
	want := []int64{20, 20, 10, 20, 30, 20, 50, 60, 40}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self = %v, want %v", self, want)
		}
	}
	for i, s := range spans {
		if self[i] < 0 || self[i] > s.DurNs {
			t.Errorf("span %d: self %d outside [0, %d]", s.ID, self[i], s.DurNs)
		}
	}
	// Sequential, properly nested: self times sum to the root exactly.
	if got := unattributedShare(spans, self, "request"); got != 0 {
		t.Errorf("unattributed share of a nested trace = %v, want 0", got)
	}
	if got := selfByName(spans, self, "cluster.shard"); len(got) != 3 || got[1] != 0.06 {
		t.Errorf("shard self times = %v us, want three with 0.06 in the middle", got)
	}
	// A child outside its parent shows as unattributed time.
	spans[1].DurNs = 120
	if got := unattributedShare(spans, selfTimes(spans), "request"); got == 0 {
		t.Error("a child overrunning its parent went unnoticed")
	}
}

// benchmarkFile is the part of BENCHMARK.json the output must agree with.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// checkSchema round-trips the result line and compares it with the metric
// list BENCHMARK.json declares.
func checkSchema(t *testing.T, res result, declared []benchmarkMetric) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := len(keys), 4; got != want || keys[0] != "attempted" || keys[1] != "correct" || keys[2] != "failed" || keys[3] != "metrics" {
		t.Fatalf("result keys = %v", keys)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if back.Attempted < 1 || back.Attempted != res.Attempted || back.Failed != res.Failed || back.Correct != res.Correct {
		t.Errorf("round trip changed the counts: %+v vs %+v", back, res)
	}
	if len(back.Metrics) != len(declared) {
		t.Errorf("%d metrics printed, %d declared", len(back.Metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := back.Metrics[m.Name]
		if !ok {
			t.Errorf("declared metric %s not printed", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s printed in %q, declared in %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke drives the whole path once at a tenth of the size: build the
// server, set up, serve, check every answer, kill and recover, trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	bf := readBenchmarkFile(t)
	for _, name := range []string{"sift10k_mixed", "sift20k_beam", "glove10k_tiered"} {
		t.Run(name, func(t *testing.T) {
			rp, err := run(config{workload: name, seed: 3, seconds: 2, trace: true, root: "..", scale: 10})
			if err != nil {
				t.Fatal(err)
			}
			if rp.failed != 0 {
				t.Fatalf("%d of %d failed: %s", rp.failed, rp.attempted, rp.firstFailure)
			}
			checkSchema(t, rp.result(), bf.PerLayer)
			rp.cfg.trace = false
			checkSchema(t, rp.result(), bf.EndToEnd)
			for _, m := range bf.EndToEnd {
				if rp.endToEnd[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rp.endToEnd[m.Name].Value)
				}
			}
			if name == "sift10k_mixed" && rp.perLayer["serve.write_samples"].Value != float64(2*writesPerSecond) {
				t.Errorf("writer acknowledged %v writes, want %d", rp.perLayer["serve.write_samples"].Value, 2*writesPerSecond)
			}
		})
	}
}
