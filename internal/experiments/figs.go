package experiments

import (
	"fmt"
	"math"

	"ansmet/internal/core"
	"ansmet/internal/energy"
	"ansmet/internal/hnsw"
	"ansmet/internal/layout"
	"ansmet/internal/partition"
	"ansmet/internal/polling"
	"ansmet/internal/precision"
	"ansmet/internal/sim"
	"ansmet/internal/stats"
)

// Fig01 reproduces the motivation breakdown (Fig. 1): fraction of CPU-Base
// execution time spent on rejected distance comparisons, accepted ones, and
// index traversal + sorting, for HNSW and IVF on SIFT and GIST.
func (r *Runner) Fig01() *Table {
	t := &Table{
		Title:  "Fig.1: CPU-Base time breakdown (index+sort / accepted / rejected dist. comp.)",
		Header: []string{"workload", "index+sort", "dist(accepted)", "dist(rejected)", "rejectedTasks"},
	}
	type cell struct{ idx, name string }
	var cells []cell
	for _, idx := range []string{"HNSW", "IVF"} {
		for _, name := range []string{"SIFT", "GIST"} {
			cells = append(cells, cell{idx, name})
		}
	}
	rows := make([][]string, len(cells))
	r.parMap(len(cells), func(i int) {
		c := cells[i]
		// Fig. 1 measures the k'=k setting, where the tight threshold
		// rejects most comparisons.
		w, sys := r.system(c.name, core.CPUBase, nil)
		var run *sim.RunResult
		if c.idx == "HNSW" {
			run = sys.RunHNSW(w.ds.Queries, 10, 10)
		} else {
			nprobe := w.ivf.NumClusters() / 4
			if nprobe < 2 {
				nprobe = 2
			}
			run = sys.RunIVF(w.ivf, w.ds.Queries, 10, 10, nprobe)
		}
		rep := run.Report
		total := rep.TraversalNs + rep.DistCompNs
		rejLines := float64(rep.IneffectualLines)
		allLines := rejLines + float64(rep.EffectualLines)
		rejFrac := rep.DistCompNs / total * rejLines / allLines
		accFrac := rep.DistCompNs/total - rejFrac
		tasks, rejected := 0, 0
		for _, tr := range run.Traces {
			tasks += tr.TotalTasks()
			rejected += tr.TotalTasks() - tr.AcceptedTasks()
		}
		rows[i] = []string{
			c.idx + "-" + c.name,
			pct(rep.TraversalNs / total),
			pct(accFrac),
			pct(rejFrac),
			pct(float64(rejected) / float64(tasks)),
		}
	})
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper: distance comparison dominates and 50%-90%+ of comparisons are rejected")
	return t
}

// Fig03 reproduces the prefix-entropy and ET-frequency distributions over
// prefix lengths (Fig. 3) for the four datasets the paper plots. They are
// the analysis of NDP-ETOpt's offline pass, read off its cached system.
func (r *Runner) Fig03() *Table {
	t := &Table{
		Title:  "Fig.3: prefix entropy (nats) and ET frequency vs prefix bit length",
		Header: []string{"dataset", "bits", "entropy", "etFreq"},
	}
	names := []string{"GIST", "DEEP", "BigANN", "SPACEV"}
	perDS := make([][][]string, len(names))
	r.parMap(len(names), func(i int) {
		name := names[i]
		_, sys := r.system(name, core.NDPETOpt, nil)
		an := sys.Analysis
		bits := an.Elem.Bits()
		step := 1
		if bits > 16 {
			step = 2 // keep fp32 rows readable
		}
		for b := 1; b <= bits; b += step {
			perDS[i] = append(perDS[i], []string{
				name, fmt.Sprint(b), fmt.Sprintf("%.3f", an.PrefixEntropy[b-1]),
				fmt.Sprintf("%.4f", an.ETFreq[b-1]),
			})
		}
	})
	for _, rows := range perDS {
		t.Rows = append(t.Rows, rows...)
	}
	t.Notes = append(t.Notes,
		"expected shape: low entropy for the first bits, ET mass concentrated mid-range, little in the lowest bits")
	return t
}

// Fig06 reproduces the headline speedup comparison (Fig. 6): all nine
// designs on all seven datasets for k in {1,5,10}, normalized to CPU-Base.
func (r *Runner) Fig06(ks []int) *Table {
	if len(ks) == 0 {
		ks = []int{1, 5, 10}
	}
	t := &Table{
		Title:  "Fig.6: speedup over CPU-Base (HNSW)",
		Header: append([]string{"dataset", "k"}, designNames()...),
	}
	type cell struct {
		name string
		k    int
		d    core.Design
	}
	var cells []cell
	for _, name := range AllProfiles {
		for _, k := range ks {
			for _, d := range core.AllDesigns {
				cells = append(cells, cell{name, k, d})
			}
		}
	}
	qps := make([]float64, len(cells))
	r.parMap(len(cells), func(i int) {
		c := cells[i]
		w, sys := r.system(c.name, c.d, nil)
		run := sys.RunHNSW(w.ds.Queries, c.k, r.Scale.EfSearch)
		qps[i] = sys.Stream(run, stream).QPS()
	})
	// Assembly: normalize each (dataset, k) row to its CPU-Base cell.
	geo := map[string][]float64{}
	nd := len(core.AllDesigns)
	for ci := 0; ci < len(cells); ci += nd {
		c := cells[ci]
		row := []string{c.name, fmt.Sprint(c.k)}
		var base float64
		for di, d := range core.AllDesigns {
			q := qps[ci+di]
			if d == core.CPUBase {
				base = q
			}
			sp := q / base
			row = append(row, f2(sp))
			if c.k == 10 {
				geo[d.String()] = append(geo[d.String()], sp)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	gm := []string{"geomean", "10"}
	for _, d := range core.AllDesigns {
		gm = append(gm, f2(stats.GeoMean(geo[d.String()])))
	}
	t.Rows = append(t.Rows, gm)
	t.Notes = append(t.Notes,
		"paper: NDP-Base 5.26x average (up to 6.40x); ET adds 1.52x on NDP; NDP-DimET marginal and ineffective on IP datasets")
	return t
}

// Fig07 reproduces the system-energy comparison (Fig. 7) at k=10,
// normalized to CPU-Base, for the six designs the paper plots.
func (r *Runner) Fig07() *Table {
	designs := []core.Design{core.CPUBase, core.CPUETOpt, core.NDPBase, core.NDPDimET, core.NDPBitET, core.NDPETOpt}
	t := &Table{
		Title:  "Fig.7: normalized system energy (k=10)",
		Header: []string{"dataset", "CPU-Base", "CPU-ETOpt", "NDP-Base", "NDP-DimET", "NDP-BitET", "NDP-ETOpt"},
	}
	model := energy.Default()
	nd := len(designs)
	mjs := make([]float64, len(AllProfiles)*nd)
	r.parMap(len(mjs), func(i int) {
		name, d := AllProfiles[i/nd], designs[i%nd]
		w, sys := r.system(name, d, nil)
		run := sys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
		mjs[i] = model.Compute(sys.Stream(run, stream).EnergyActivity()).TotalMJ()
	})
	for ni, name := range AllProfiles {
		row := []string{name}
		var base float64
		for di, d := range designs {
			e := mjs[ni*nd+di]
			if d == core.CPUBase {
				base = e
			}
			row = append(row, f2(e/base))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: NDP-Base uses 77.8% less energy than CPU-Base; ET reduces it further")
	return t
}

// Fig08 reproduces the recall-vs-QPS tradeoff curves (Fig. 8) on SIFT and
// GIST by sweeping the result-queue size k' (efSearch).
func (r *Runner) Fig08() *Table {
	t := &Table{
		Title:  "Fig.8: recall@10 vs QPS (efSearch sweep)",
		Header: []string{"dataset", "design", "efSearch", "recall@10", "QPS"},
	}
	type cell struct {
		name string
		d    core.Design
		ef   int
	}
	var cells []cell
	for _, name := range []string{"SIFT", "GIST"} {
		for _, d := range []core.Design{core.CPUBase, core.NDPBase, core.NDPETOpt} {
			for _, ef := range []int{10, 20, 40, 80, 160} {
				cells = append(cells, cell{name, d, ef})
			}
		}
	}
	rows := make([][]string, len(cells))
	r.parMap(len(cells), func(i int) {
		c := cells[i]
		w, sys := r.system(c.name, c.d, nil)
		run := sys.RunHNSW(w.ds.Queries, 10, c.ef)
		rows[i] = []string{
			c.name, c.d.String(), fmt.Sprint(c.ef),
			fmt.Sprintf("%.3f", run.Recall(w.gt)),
			fmt.Sprintf("%.0f", sys.Stream(run, stream).QPS()),
		}
	})
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper: ANSMET dominates at every accuracy; smaller k' tightens thresholds and widens the ET gap")
	return t
}

// Fig09 reproduces the per-query latency breakdown (Fig. 9) on SIFT:
// CPU-Base, NDP-Base, NDP-ETOpt with conventional 100 ns polling, and with
// adaptive polling. Values are normalized to the NDP-Base total.
func (r *Runner) Fig09() *Table {
	t := &Table{
		Title:  "Fig.9: latency breakdown on SIFT (normalized to NDP-Base total)",
		Header: []string{"design", "traversal", "offload", "distComp", "collect", "total"},
	}
	type variant struct {
		label  string
		design core.Design
		poll   polling.Policy // nil keeps the default platform's
	}
	variants := []variant{
		{"CPU-Base", core.CPUBase, nil},
		{"NDP-Base", core.NDPBase, nil},
		{"NDP-ETOpt+ConvPoll", core.NDPETOpt, polling.Conventional{IntervalNs: 100}},
		{"NDP-ETOpt+AdaptPoll", core.NDPETOpt, polling.Adaptive{}},
	}
	type parts struct{ trav, off, dist, coll float64 }
	measured := make([]parts, len(variants))
	r.parMap(len(variants), func(i int) {
		v := variants[i]
		// Fig. 9 is a per-query latency breakdown: queries run one at a
		// time so the components reflect the latency chain rather than
		// saturation queueing.
		w, sys := r.system("SIFT", v.design, func(_ *core.SystemConfig, c *sim.Config) {
			c.InFlightFactor = -1
			if v.poll != nil {
				c.Poll = v.poll
			}
		})
		run := sys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
		rep := run.Report
		nq := float64(len(rep.QueryLatencyNs))
		measured[i] = parts{rep.TraversalNs / nq, rep.OffloadNs / nq, rep.DistCompNs / nq, rep.CollectNs / nq}
	})
	var base float64
	for i, v := range variants {
		if v.label == "NDP-Base" {
			m := measured[i]
			base = m.trav + m.off + m.dist + m.coll
		}
	}
	for i, v := range variants {
		m := measured[i]
		total := m.trav + m.off + m.dist + m.coll
		t.Rows = append(t.Rows, []string{
			v.label, f2(m.trav / base), f2(m.off / base), f2(m.dist / base), f2(m.coll / base), f2(total / base),
		})
	}
	t.Notes = append(t.Notes,
		"paper: NDP-Base cuts latency 72.8% vs CPU; conventional polling costs 13%, adaptive polling reduces that overhead by 62%")
	return t
}

// Fig10 reproduces the fetch-utilization comparison (Fig. 10): effectual
// (accepted) versus ineffectual fetched lines for the six NDP designs.
func (r *Runner) Fig10() *Table {
	designs := []core.Design{core.NDPBase, core.NDPDimET, core.NDPBitET, core.NDPET, core.NDPETDual, core.NDPETOpt}
	t := &Table{
		Title:  "Fig.10: fetch utilization (effectual fraction of fetched lines)",
		Header: append([]string{"dataset"}, designStrings(designs)...),
	}
	nd := len(designs)
	utils := make([]string, len(AllProfiles)*nd)
	r.parMap(len(utils), func(i int) {
		name, d := AllProfiles[i/nd], designs[i%nd]
		w, sys := r.system(name, d, nil)
		run := sys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
		utils[i] = pct(run.Report.FetchUtilization())
	})
	for ni, name := range AllProfiles {
		t.Rows = append(t.Rows, append([]string{name}, utils[ni*nd:(ni+1)*nd]...))
	}
	t.Notes = append(t.Notes, "paper: utilization improves 6.0% -> 9.0% (ET) -> 11.1% (ETOpt) on average")
	return t
}

// Fig11 reproduces the sampling-parameter study (Fig. 11) on DEEP: KL
// divergence between the sampled ET-position distribution and the "true"
// distribution obtained from real queries with their true thresholds.
func (r *Runner) Fig11() *Table {
	w := r.load("DEEP")
	p := w.ds.Profile
	truth := r.trueETDistribution(w)

	t := &Table{
		Title:  "Fig.11: KL divergence of sampled ET distribution vs true (DEEP)",
		Header: []string{"parameter", "value", "KL"},
	}
	klOf := func(sampleN int, thrPct float64) float64 {
		opts := layout.DefaultOptions()
		opts.ThresholdPercentile = thrPct
		an, err := layout.Analyze(layout.Sample(w.rows, sampleN, r.Scale.Seed+7), p.Elem, p.Metric, opts)
		if err != nil {
			return math.NaN()
		}
		dist := append(append([]float64{}, an.ETFreq...), an.NoTermFrac)
		return stats.KLDivergence(truth, dist)
	}
	type cell struct {
		param, value string
		n            int
		thr          float64
	}
	var cells []cell
	for _, n := range []int{10, 20, 50, 100} {
		cells = append(cells, cell{"#samples", fmt.Sprint(n), n, 0.90})
	}
	for _, thr := range []float64{0.98, 0.95, 0.90, 0.80, 0.50} {
		label := fmt.Sprintf("%.0f%% largest", 100*(1-thr))
		cells = append(cells, cell{"threshold", label, 100, thr})
	}
	kls := make([]float64, len(cells))
	r.parMap(len(cells), func(i int) { kls[i] = klOf(cells[i].n, cells[i].thr) })
	for i, c := range cells {
		t.Rows = append(t.Rows, []string{c.param, c.value, fmt.Sprintf("%.3f", kls[i])})
	}
	t.Notes = append(t.Notes,
		"paper: 50-100 samples suffice and the 10%-largest threshold is best; at this scale the in-search thresholds sit deeper in the pairwise distribution, shifting the best percentile toward the median (see EXPERIMENTS.md)")
	return t
}

// trueETDistribution computes the reference ET-position distribution from
// real queries on the full dataset: it replays the comparison tasks of an
// actual search run, each with the threshold the search carried at offload
// time — the distribution the offline sampling tries to approximate.
func (r *Runner) trueETDistribution(w *workload) []float64 {
	p := w.ds.Profile
	bits := p.Elem.Bits()
	hist := make([]float64, bits+1)
	_, sys := r.system("DEEP", core.CPUBase, nil)
	run := sys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
	rng := stats.NewRNG(r.Scale.Seed + 13)
	for qi, tr := range run.Traces {
		q := w.ds.Queries[qi]
		for _, task := range tr.Tasks() {
			if rng.Float64() > 0.25 || math.IsInf(task.Threshold, 1) {
				continue // subsample for cost; skip unbounded warmup tasks
			}
			v := w.ds.Vectors[task.ID]
			codes := p.Elem.EncodeVector(v, nil)
			pos := layout.TerminationPosition(p.Elem, p.Metric, task.Threshold, q, codes)
			if pos > bits {
				hist[bits]++
			} else {
				hist[pos-1]++
			}
		}
	}
	return hist
}

// Fig12 reproduces the partitioning-scheme sweep (Fig. 12) on GIST with
// NDP-ETOpt, normalized to the hybrid 1 kB default.
func (r *Runner) Fig12() *Table {
	t := &Table{
		Title:  "Fig.12: vector data partitioning on GIST (NDP-ETOpt QPS, normalized to hybrid 1kB)",
		Header: []string{"scheme", "normQPS"},
	}
	type scheme struct {
		label string
		mut   func(*core.SystemConfig, *sim.Config)
	}
	schemes := []scheme{
		{"vertical", func(_ *core.SystemConfig, c *sim.Config) { c.Scheme = partition.Vertical }},
		{"hybrid-256B", func(_ *core.SystemConfig, c *sim.Config) { c.SubVectorBytes = 256 }},
		{"hybrid-512B", func(_ *core.SystemConfig, c *sim.Config) { c.SubVectorBytes = 512 }},
		{"hybrid-1kB", nil},
		{"hybrid-2kB", func(_ *core.SystemConfig, c *sim.Config) { c.SubVectorBytes = 2048 }},
		{"horizontal", func(_ *core.SystemConfig, c *sim.Config) { c.Scheme = partition.Horizontal }},
	}
	qpss := make([]float64, len(schemes))
	r.parMap(len(schemes), func(i int) {
		w, sys := r.system("GIST", core.NDPETOpt, schemes[i].mut)
		run := sys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
		qpss[i] = sys.Stream(run, stream).QPS()
	})
	var base float64
	for i, sc := range schemes {
		if sc.label == "hybrid-1kB" {
			base = qpss[i]
		}
	}
	for i, sc := range schemes {
		t.Rows = append(t.Rows, []string{sc.label, f2(qpss[i] / base)})
	}
	t.Notes = append(t.Notes,
		"paper: hybrid 1kB is best; ET shifts the sweet spot toward longer sub-vectors (in this reproduction the crossover sits at even larger S — see EXPERIMENTS.md)")
	return t
}

func designNames() []string {
	out := make([]string, len(core.AllDesigns))
	for i, d := range core.AllDesigns {
		out[i] = d.String()
	}
	return out
}

func designStrings(ds []core.Design) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// FigTieredFrontier maps the recall/traffic frontier of the tiered
// bound-first/exact-rerank pipeline (ROADMAP item 3) against the two pure
// paths it sits between: the NDP beam search (cheap, recall saturates
// below 1 as efSearch grows) and the exact ET scan (recall 1 by
// construction, the traffic ceiling). Every point is an independent cell
// with a private ETEngine, and every reported quantity — recall against
// the ground truth, mean fetched lines per query, mean re-rank pool — is
// deterministic, so parallel and serial renders are byte-identical.
func (r *Runner) FigTieredFrontier() *Table {
	t := &Table{
		Title:  "Frontier: tiered pipeline vs pure paths (recall@10 vs lines/query)",
		Header: []string{"dataset", "path", "knob", "recall@10", "lines/query", "pool/query"},
	}
	type cell struct {
		name   string
		path   string
		knob   string
		ef     int     // beam cells
		budget float64 // tiered cells
	}
	var cells []cell
	for _, name := range []string{"SIFT", "GIST"} {
		for _, ef := range []int{10, 40, 160} {
			cells = append(cells, cell{name: name, path: "beam", knob: fmt.Sprintf("ef=%d", ef), ef: ef})
		}
		cells = append(cells, cell{name: name, path: "exact", knob: "-"})
		for _, b := range []float64{0.8, 0.9, 0.95, 1} {
			cells = append(cells, cell{name: name, path: "tiered", knob: fmt.Sprintf("B=%.2f", b), budget: b})
		}
	}
	rows := make([][]string, len(cells))
	r.parMap(len(cells), func(i int) {
		c := cells[i]
		w, sys := r.system(c.name, core.NDPETOpt, nil)
		nq := float64(len(w.ds.Queries))
		switch c.path {
		case "beam":
			run := sys.RunHNSW(w.ds.Queries, 10, c.ef)
			lines := float64(run.Report.EffectualLines + run.Report.IneffectualLines)
			rows[i] = []string{c.name, c.path, c.knob,
				fmt.Sprintf("%.3f", run.Recall(w.gt)), f1(lines / nq), "-"}
		case "exact":
			eng := sys.Store.NewETEngine(w.ds.Profile.Metric)
			sum, lines := 0.0, 0
			for qi, q := range w.ds.Queries {
				nn, l := eng.ExactKNN(q, 10)
				lines += l
				sum += recallNN(nn, w.gt[qi])
			}
			rows[i] = []string{c.name, c.path, c.knob,
				fmt.Sprintf("%.3f", sum/nq), f1(float64(lines) / nq), "-"}
		case "tiered":
			eng := sys.Store.NewETEngine(w.ds.Profile.Metric)
			var dst []hnsw.Neighbor
			sum := 0.0
			lines, poolSz := 0, 0
			for qi, q := range w.ds.Queries {
				var st core.TieredStats
				dst, st = eng.TieredKNNInto(nil, q, 10, core.TieredOpts{Budget: c.budget}, dst)
				lines += st.BoundLines + st.RerankLines
				poolSz += st.Pool
				sum += recallNN(dst, w.gt[qi])
			}
			rows[i] = []string{c.name, c.path, c.knob,
				fmt.Sprintf("%.3f", sum/nq), f1(float64(lines) / nq), f1(float64(poolSz) / nq)}
		}
	})
	t.Rows = rows
	t.Notes = append(t.Notes,
		"tiered B=1 reaches recall 1.000 below the exact scan's traffic; the beam path stays cheapest but its recall saturates below 1")
	return t
}

// FigPrecisionFrontier measures adaptive mixed-precision search (ROADMAP
// item 4) against fixed-depth execution at matched recall targets, on both
// query paths. The fixed arm is the plain model; the adaptive arm is a
// model built through the RecallTarget knob, so the kmeans-radius depth
// map and its engine wiring under test are the model's own.
// On the beam path the per-partition schedule caps how deep an accepted
// comparison refines (the escalation margin re-fetches only margin-tight
// candidates); on the tiered path it governs the stage-1 bound depth and
// shrinks the re-rank pool. Speedup is fixed lines over adaptive lines at
// the same target; the recall columns verify the match. Every cell owns a
// private adaptive system and a clock-free tuner, so parallel and serial
// renders are byte-identical.
func (r *Runner) FigPrecisionFrontier() *Table {
	t := &Table{
		Title:  "Precision frontier: fixed-depth vs adaptive mixed-precision (matched recall)",
		Header: []string{"dataset", "target", "path", "arm", "recall@10", "lines/query", "pool/query", "speedup"},
	}
	type cell struct {
		name   string
		target float64
	}
	var cells []cell
	for _, name := range []string{"DEEP", "GloVe", "GIST"} {
		for _, tgt := range []float64{0.9, 0.95} {
			cells = append(cells, cell{name: name, target: tgt})
		}
	}
	rows := make([][][]string, len(cells))
	r.parMap(len(cells), func(i int) {
		c := cells[i]
		w, fixSys := r.system(c.name, core.NDPETOpt, nil)
		_, adSys := r.system(c.name, core.NDPETOpt, func(_ *core.SystemConfig, cfg *sim.Config) {
			cfg.RecallTarget = c.target
		})
		nq := float64(len(w.ds.Queries))
		beam := func(sys *sim.Model) (float64, float64) {
			run := sys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
			lines := float64(run.Report.EffectualLines + run.Report.IneffectualLines)
			return run.Recall(w.gt), lines / nq
		}
		fixRec, fixLines := beam(fixSys)
		adRec, adLines := beam(adSys)

		var dst []hnsw.Neighbor
		tiered := func(sys *sim.Model, opts func() core.TieredOpts, observe func(core.TieredStats)) (float64, float64, float64) {
			eng := sys.Store.NewETEngine(w.ds.Profile.Metric)
			sum := 0.0
			lines, pool := 0, 0
			for qi, q := range w.ds.Queries {
				var st core.TieredStats
				dst, st = eng.TieredKNNInto(nil, q, 10, opts(), dst)
				lines += st.BoundLines + st.RerankLines
				pool += st.Pool
				sum += recallNN(dst, w.gt[qi])
				if observe != nil {
					observe(st)
				}
			}
			return sum / nq, float64(lines) / nq, float64(pool) / nq
		}
		tfRec, tfLines, tfPool := tiered(fixSys, func() core.TieredOpts {
			return core.TieredOpts{Budget: c.target}
		}, nil)
		tuner := precision.NewTuner(c.target)
		taRec, taLines, taPool := tiered(adSys, func() core.TieredOpts {
			return core.TieredOpts{
				Budget: tuner.Budget(), MaxBoundLines: -1, Precision: adSys.Precision,
				DepthBias: tuner.DepthBias(), EscalateMargin: tuner.Margin(),
			}
		}, func(st core.TieredStats) { tuner.Observe(10, st.Pool, st.AtRisk) })

		tgt := fmt.Sprintf("%.2f", c.target)
		rows[i] = [][]string{
			{c.name, tgt, "beam", "fixed", fmt.Sprintf("%.3f", fixRec), f1(fixLines), "-", "-"},
			{c.name, tgt, "beam", "adaptive", fmt.Sprintf("%.3f", adRec), f1(adLines), "-", f2(fixLines / adLines)},
			{c.name, tgt, "tiered", "fixed", fmt.Sprintf("%.3f", tfRec), f1(tfLines), f1(tfPool), "-"},
			{c.name, tgt, "tiered", "adaptive", fmt.Sprintf("%.3f", taRec), f1(taLines), f1(taPool), f2(tfLines / taLines)},
		}
	})
	for _, quad := range rows {
		t.Rows = append(t.Rows, quad...)
	}
	t.Notes = append(t.Notes,
		"beam: the per-partition schedule caps accepted-comparison depth, so line traffic drops at unchanged recall — the headline speedup (BenchmarkAdaptivePrecision gates it in time)",
		"tiered: the schedule deepens stage-1 bounds for loose partitions, trading bound lines for a much smaller exact re-rank pool at the same target")
	return t
}
