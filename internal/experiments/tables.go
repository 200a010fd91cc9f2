package experiments

import (
	"fmt"
	"time"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/sim"
	"ansmet/internal/stats"
	"ansmet/internal/trace"
)

// Table3 reproduces the NDP-unit scaling study (Table 3): ANSMET speedup
// over CPU-Base as the rank (= unit) count grows from 8 to 64, with the
// host fixed at 4 channels.
func (r *Runner) Table3() *Table {
	t := &Table{
		Title:  "Table 3: ANSMET speedup over CPU-Base vs number of NDP units (SIFT)",
		Header: []string{"units", "speedup"},
	}
	// Cell 0 is the CPU-Base reference; cells 1..n sweep the rank count.
	ranks := []int{1, 2, 4, 8}
	qps := make([]float64, 1+len(ranks))
	r.parMap(len(qps), func(i int) {
		if i == 0 {
			w, base := r.system("SIFT", core.CPUBase, nil)
			baseRun := base.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
			qps[0] = base.Stream(baseRun, stream).QPS()
			return
		}
		rp := ranks[i-1]
		w, sys := r.system("SIFT", core.NDPETOpt, func(_ *core.SystemConfig, c *sim.Config) {
			c.Mem.RanksPerDIMM = rp
		})
		run := sys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
		qps[i] = sys.Stream(run, stream).QPS()
	})
	for i, rp := range ranks {
		units := 4 * 2 * rp
		t.Rows = append(t.Rows, []string{fmt.Sprint(units), f2(qps[i+1] / qps[0])})
	}
	t.Notes = append(t.Notes,
		"paper: 1.94x/3.72x/6.04x/7.60x for 8/16/32/64 units — near-linear to 32, saturating after")
	return t
}

// Table4 reproduces the preprocessing-cost comparison (Table 4): ANSMET's
// offline sampling + layout transformation time versus HNSW graph
// construction time.
func (r *Runner) Table4() *Table {
	t := &Table{
		Title:  "Table 4: preprocessing time vs graph construction time",
		Header: []string{"dataset", "preproc(s)", "graphConstr(s)", "overhead"},
		Rows:   r.table4(),
	}
	t.Notes = append(t.Notes, "paper: preprocessing adds < 1% over graph construction")
	return t
}

// table4Repeats is how many graph constructions and offline passes a
// Table 4 row takes the median of: one wall-clock sample of either moves by
// a fifth between runs of one binary (SIFT's build read 0.51–0.64 s).
const table4Repeats = 3

// timePreprocessing times table4Repeats fresh graph constructions and as
// many fresh NDP-ETOpt offline passes per profile, one after the other and
// outside the worker pool, so no other build shares the CPUs, and reports
// the median of each. The Runner keeps the rows (table4): re-running the
// table, serially or in parallel, gives the same bytes.
func (r *Runner) timePreprocessing() [][]string {
	rows := make([][]string, len(AllProfiles))
	for i, name := range AllProfiles {
		w := r.load(name)
		var build, pre [table4Repeats]float64
		for j := range table4Repeats {
			start := time.Now()
			r.buildGraph(w.rows, w.ds.Profile)
			build[j] = time.Since(start).Seconds()
			// An edit, even one that changes nothing, builds a private system.
			_, m := r.system(name, core.NDPETOpt, func(*core.SystemConfig, *sim.Config) {})
			pre[j] = m.PreprocessSeconds
		}
		b, p := stats.Percentile(build[:], 0.5), stats.Percentile(pre[:], 0.5)
		rows[i] = []string{name, fmt.Sprintf("%.3f", p), fmt.Sprintf("%.3f", b), pct(p / b)}
	}
	return rows
}

// Table5 reproduces the outlier-fraction sweep for common-prefix
// elimination (Table 5) on SPACEV at k=10. Part (a) keeps the backup
// re-check (no accuracy loss); part (b) drops it and reports the recall
// loss.
func (r *Runner) Table5() *Table {
	t := &Table{
		Title: "Table 5: outlier-aware common prefix elimination (SPACEV, k=10)",
		Header: []string{"outlier%", "prefixBits", "speedup", "savedSpace",
			"extraSpace", "extraAccesses", "recallLoss(noBackup)"},
	}
	// Cell 0 measures the NDP-ETDual reference; cells 1..n sweep the outlier
	// budget on private (mutated) systems. Cells return raw measurements;
	// speedup and recall loss are derived at assembly.
	budgets := []float64{0, 0.0001, 0.001, 0.01, 0.2}
	type t5cell struct {
		prefixBits                          int
		qps, saved, extraSpace, backupShare float64
		lossyRecall                         float64
		hasLossy                            bool
	}
	var baseQPS, baseRecall float64
	res := make([]t5cell, len(budgets))
	w := r.load("SPACEV")
	r.parMap(1+len(budgets), func(i int) {
		if i == 0 {
			_, baseSys := r.system("SPACEV", core.NDPETDual, nil)
			baseRun := baseSys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
			baseQPS = baseSys.Stream(baseRun, stream).QPS()
			baseRecall = baseRun.Recall(w.gt)
			return
		}
		b := budgets[i-1]
		_, sys := r.system("SPACEV", core.NDPETOpt, func(c *core.SystemConfig, _ *sim.Config) {
			c.LayoutOpts.OutlierBudget = b
		})
		run := sys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
		c := t5cell{prefixBits: sys.Params.PrefixLen, qps: sys.Stream(run, stream).QPS()}

		if sys.Store != nil {
			c.saved = sys.Store.SpaceSavedFraction()
			// Backup copies are needed only for outlier vectors.
			c.extraSpace = float64(sys.Store.NumOutliers()*sys.Store.BackupLines()) /
				float64(sys.Store.Len()*sys.Store.BackupLines())
		}
		backup, total := backupLineShare(run.Traces)
		c.backupShare = backup / total

		// Accuracy-lossy variant: drop the backup re-check, on an engine of
		// this cell's own. Only its recall is wanted, so the queries are
		// searched without a trace and nothing is replayed.
		if ee, ok := sys.NewWorkerEngine().(*core.ETEngine); ok {
			ee.SetNoBackup(true)
			lossy := &sim.RunResult{}
			for _, q := range w.ds.Queries {
				lossy.Results = append(lossy.Results, sys.Index.SearchFilteredInto(
					q, 10, r.Scale.EfSearch, sys.Cfg.BeamBatch, nil, ee, nil, nil))
			}
			c.lossyRecall = lossy.Recall(w.gt)
			c.hasLossy = true
		}
		res[i-1] = c
	})
	for i, budget := range budgets {
		c := res[i]
		recallLoss := 0.0
		if c.hasLossy {
			recallLoss = baseRecall - c.lossyRecall
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g%%", budget*100),
			fmt.Sprint(c.prefixBits),
			fmt.Sprintf("%+.1f%%", (c.qps/baseQPS-1)*100),
			pct(c.saved), pct(c.extraSpace),
			pct(c.backupShare),
			fmt.Sprintf("%.1f%%", recallLoss*100),
		})
	}
	t.Notes = append(t.Notes,
		"paper: 0.1% outliers saves 37.5% space with +32% speedup and ~1.4% extra accesses; 20% outliers backfires; no backup loses 34.7% accuracy")
	return t
}

// backupLineShare counts backup versus total fetched lines in traces.
func backupLineShare(traces []*trace.Query) (backup, total float64) {
	for _, tr := range traces {
		for _, task := range tr.Tasks() {
			backup += float64(task.Result.BackupLines)
			total += float64(task.Result.TotalLines())
		}
	}
	if total == 0 {
		total = 1
	}
	return backup, total
}

// Replication reproduces the §5.3 load-balance study: the ratio between
// the most-loaded NDP unit and the average, with and without replicating
// the top HNSW layers, under uniform and zipf(2.0)-skewed query streams.
func (r *Runner) Replication() *Table {
	t := &Table{
		Title:  "§5.3: hot-vector replication and load imbalance (GIST)",
		Header: []string{"queryDist", "replication", "imbalance(max/mean)"},
	}
	w := r.load("GIST")
	// A diverse query pool: skew must come from the query *distribution*
	// (some queries asked far more often), not from having few queries.
	pool := dataset.Generate(w.ds.Profile, 0, 96, r.Scale.Seed+41).Queries
	run := func(replicate bool, zipf bool) float64 {
		_, sys := r.system("GIST", core.NDPBase, func(_ *core.SystemConfig, c *sim.Config) {
			if !replicate {
				c.ReplicateTopLayers = 0
			}
		})
		rng := stats.NewRNG(r.Scale.Seed + 99)
		var idxs []int
		if zipf {
			idxs = dataset.ZipfQueryStream(rng, 2.0, len(pool), 4*len(pool))
		} else {
			for i := 0; i < 4*len(pool); i++ {
				idxs = append(idxs, rng.Intn(len(pool)))
			}
		}
		queries := make([][]float32, len(idxs))
		for i, qi := range idxs {
			queries[i] = pool[qi]
		}
		return sys.RunHNSW(queries, 10, r.Scale.EfSearch).Report.ImbalanceRatio()
	}
	type cell struct {
		replicate, zipf bool
		dist, repl      string
	}
	cells := []cell{
		{false, false, "uniform", "off"},
		{true, false, "uniform", "top-4-layers"},
		{false, true, "zipf(2.0)", "off"},
		{true, true, "zipf(2.0)", "top-4-layers"},
	}
	ratios := make([]float64, len(cells))
	r.parMap(len(cells), func(i int) { ratios[i] = run(cells[i].replicate, cells[i].zipf) })
	for i, c := range cells {
		t.Rows = append(t.Rows, []string{c.dist, c.repl, f2(ratios[i])})
	}
	t.Notes = append(t.Notes,
		"paper: replication reduces the ratio 1.49->1.05 (uniform) and 2.19->1.09 (zipf 2.0)")
	return t
}
