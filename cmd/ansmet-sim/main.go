// Command ansmet-sim runs one design point of the simulated CPU+NDP
// platform over a synthetic workload and prints the full timing breakdown —
// the design-space exploration companion to ansmet-bench. Every platform
// knob of the paper's Table 1 is a flag.
//
// Usage:
//
//	ansmet-sim -profile GIST -design NDP-ETOpt -ranks 4 -sub 1024 -poll adaptive
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/energy"
	"ansmet/internal/hnsw"
	"ansmet/internal/partition"
	"ansmet/internal/polling"
	"ansmet/internal/sim"
	"ansmet/internal/trace"
)

func main() {
	profile := flag.String("profile", "DEEP", "dataset profile")
	n := flag.Int("n", 4000, "database size")
	nq := flag.Int("q", 32, "distinct queries")
	stream := flag.Int("stream", 96, "replayed query stream length (throughput regime)")
	k := flag.Int("k", 10, "result count")
	ef := flag.Int("ef", 60, "search beam width")
	efc := flag.Int("efc", 120, "HNSW efConstruction")
	designName := flag.String("design", "NDP-ETOpt", "design point")
	channels := flag.Int("channels", 4, "memory channels")
	dimms := flag.Int("dimms", 2, "DIMMs per channel")
	ranks := flag.Int("ranks", 4, "ranks per DIMM (NDP units = channels*dimms*ranks)")
	scheme := flag.String("scheme", "hybrid", "partitioning: horizontal|vertical|hybrid")
	sub := flag.Int("sub", 1024, "hybrid sub-vector bytes")
	poll := flag.String("poll", "conventional", "polling: conventional|adaptive")
	pollNs := flag.Float64("pollns", 100, "conventional polling interval (ns)")
	batch := flag.Int("batch", 8, "delayed-synchronization beam batch")
	seed := flag.Uint64("seed", 2025, "generator seed")
	parallel := flag.Int("parallel", 0, "functional-search workers (0 = GOMAXPROCS); output is identical at any setting")
	flag.Parse()
	p, err := checkFlags(*profile, *n, *nq, *stream, *k, *ef)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	var design core.Design
	found := false
	for _, d := range core.AllDesigns {
		if d.String() == *designName {
			design, found = d, true
		}
	}
	if !found {
		log.Fatalf("unknown design %q; options: %v", *designName, core.AllDesigns)
	}

	ds := dataset.Generate(p, *n, *nq, *seed)
	rs := ds.Rows()
	ix, err := hnsw.Build(rs, p.Metric, hnsw.Config{
		M: 8, MaxDegree: 16, EfConstruction: *efc, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultSystemConfig(design)
	cfg.Seed = *seed
	cfg.BeamBatch = *batch
	cfg.Mem.Channels = *channels
	cfg.Mem.DIMMsPerChannel = *dimms
	cfg.Mem.RanksPerDIMM = *ranks
	cfg.SubVectorBytes = *sub
	switch *scheme {
	case "horizontal":
		cfg.Scheme = partition.Horizontal
	case "vertical":
		cfg.Scheme = partition.Vertical
	case "hybrid":
		cfg.Scheme = partition.Hybrid
	default:
		log.Fatalf("unknown scheme %q", *scheme)
	}
	sys, err := core.NewSystem(rs, p.Metric, ix, cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := sim.NewModel(sys)
	switch *poll {
	case "conventional":
		m.Timing.Poll = polling.Conventional{IntervalNs: *pollNs}
	case "adaptive":
		m.Timing.Poll = polling.Adaptive{}
	default:
		log.Fatalf("unknown polling %q", *poll)
	}
	run := m.RunHNSWParallel(ds.Queries, *k, *ef, *parallel)
	var traces []*trace.Query
	for len(traces) < *stream {
		traces = append(traces, run.Traces...)
	}
	rep := sim.Run(m.Timing, traces)

	gt := ds.GroundTruth(*k)
	recall := 0.0
	for qi, ids := range run.IDs() {
		recall += dataset.RecallAtK(ids, gt[qi])
	}
	recall /= float64(len(gt))

	hops, tasks, lines := 0, 0, 0
	for _, tr := range run.Traces {
		hops += tr.NumHops()
		tasks += tr.TotalTasks()
		lines += tr.TotalLines()
	}
	nq64 := float64(len(traces))
	model := energy.Default()
	e := model.Compute(rep.EnergyActivity())

	fmt.Printf("design        %v on %s (%d vectors x %d dims %v, %v)\n",
		design, p.Name, *n, p.Dim, p.Elem, p.Metric)
	fmt.Printf("platform      %d ch x %d DIMM x %d ranks = %d NDP units; %s",
		*channels, *dimms, *ranks, *channels**dimms**ranks, *scheme)
	if cfg.Scheme == partition.Hybrid {
		fmt.Printf(" (S=%dB)", *sub)
	}
	fmt.Printf("; %s polling\n", *poll)
	fmt.Printf("workload      %d queries (x%d stream), k=%d ef=%d batch=%d; recall@%d %.3f\n",
		*nq, len(traces) / *nq, *k, *ef, *batch, *k, recall)
	fmt.Printf("per query     %d hops, %d comparisons, %d lines fetched\n",
		hops/len(run.Traces), tasks/len(run.Traces), lines/len(run.Traces))
	fmt.Println()
	fmt.Printf("QPS           %.0f\n", rep.QPS())
	fmt.Printf("avg latency   %.2f us  (makespan %.1f us)\n", rep.AvgLatencyNs()/1000, rep.MakespanNs/1000)
	fmt.Printf("breakdown/q   traversal %.0f ns | offload %.0f ns | distcomp %.0f ns | collect %.0f ns\n",
		rep.TraversalNs/nq64, rep.OffloadNs/nq64, rep.DistCompNs/nq64, rep.CollectNs/nq64)
	fmt.Printf("traffic       host %.2f MB | rank-internal %.2f MB | fetch utilization %.1f%%\n",
		float64(rep.Mem.HostBytes)/1e6, float64(rep.Mem.NDPBytes)/1e6, rep.FetchUtilization()*100)
	fmt.Printf("DRAM          %d reads (%.1f%% row hits), %d refresh stalls, imbalance %.2fx\n",
		rep.Mem.Reads, 100*float64(rep.Mem.RowHits)/float64(rep.Mem.RowHits+rep.Mem.RowMisses),
		rep.Mem.Refreshes, rep.ImbalanceRatio())
	fmt.Printf("energy        %.2f mJ  (DRAM %.2f | CPU %.2f | NDP %.2f)\n",
		e.TotalMJ(), e.DRAMmJ, e.CPUmJ, e.NDPmJ)
	fmt.Printf("polling       %d poll reads\n", rep.PollCount)
}

// checkFlags resolves the profile and rejects the counts no run can be made
// of: a database, a query set, a stream or a result count that is not
// positive, and a beam narrower than k.
func checkFlags(profile string, n, nq, stream, k, ef int) (dataset.Profile, error) {
	p, err := dataset.ParseProfile(profile)
	if err != nil {
		return p, err
	}
	if n <= 0 || nq <= 0 || stream <= 0 || k <= 0 {
		return p, fmt.Errorf("-n, -q, -stream and -k must be positive (got %d, %d, %d, %d)", n, nq, stream, k)
	}
	if ef < k {
		return p, fmt.Errorf("-ef must be at least -k (got -ef %d, -k %d)", ef, k)
	}
	return p, nil
}
