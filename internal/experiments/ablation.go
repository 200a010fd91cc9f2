package experiments

import (
	"fmt"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/layout"
	"ansmet/internal/prefixelim"
	"ansmet/internal/quantize"
	"ansmet/internal/rows"
	"ansmet/internal/sim"
	"ansmet/internal/vecmath"
)

// AblationBeamBatch sweeps the delayed-synchronization batch size (the
// BeamBatch modeling decision in DESIGN.md): larger batches amortize the
// per-hop offload/poll synchronization on the NDP side at the cost of a few
// extra comparisons.
func (r *Runner) AblationBeamBatch() *Table {
	t := &Table{
		Title:  "Ablation: delayed-synchronization batch size (SIFT, NDP-ETOpt)",
		Header: []string{"batch", "hops/query", "tasks/query", "recall@10", "QPS", "normQPS"},
	}
	batches := []int{1, 2, 4, 8, 16}
	type bbCell struct {
		hops, tasks, n int
		recall, qps    float64
	}
	res := make([]bbCell, len(batches))
	r.parMap(len(batches), func(i int) {
		bb := batches[i]
		w, sys := r.system("SIFT", core.NDPETOpt, func(c *core.SystemConfig, _ *sim.Config) {
			c.BeamBatch = bb
		})
		run := sys.RunHNSW(w.ds.Queries, 10, r.Scale.EfSearch)
		rep := sys.Stream(run, stream)
		c := bbCell{n: len(run.Traces), recall: run.Recall(w.gt), qps: rep.QPS()}
		for _, tr := range run.Traces {
			c.hops += tr.NumHops()
			c.tasks += tr.TotalTasks()
		}
		res[i] = c
	})
	base := res[0].qps
	for i, batch := range batches {
		c := res[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(batch), fmt.Sprint(c.hops / c.n), fmt.Sprint(c.tasks / c.n),
			fmt.Sprintf("%.3f", c.recall),
			fmt.Sprintf("%.0f", c.qps), f2(c.qps / base),
		})
	}
	t.Notes = append(t.Notes,
		"fewer synchronization points lift NDP throughput; extra visited candidates keep recall flat or better")
	return t
}

// AblationQuantization compares ANSMET's lossless early termination against
// the quantization schemes the paper discusses (§4.3): SQ8 data dropped
// into the ET store, and PQ with partial-element early termination. The
// comparison is per-comparison data fetched versus exactness.
func (r *Runner) AblationQuantization() *Table {
	t := &Table{
		Title:  "Ablation: early termination vs/with vector quantization (DEEP, exact top-10 scans)",
		Header: []string{"scheme", "bytes/comparison", "recall@10", "exactInItsSpace"},
	}
	w := r.load("DEEP")
	p := w.ds.Profile
	nq := len(w.ds.Queries)
	plainBytes := float64(rows.Lines(p.Elem, p.Dim) * 64)

	mkRow := func(name string, bytesPer float64, recall float64, exact bool) []string {
		return []string{
			name, fmt.Sprintf("%.0f", bytesPer), fmt.Sprintf("%.3f", recall), fmt.Sprint(exact),
		}
	}

	// Four independent heavy cells; each produces one row.
	jobs := []func() []string{
		// Plain brute-force scan.
		func() []string { return mkRow("full-precision scan", plainBytes, 1.0, true) },

		// ANSMET ET exact scan (lossless).
		func() []string {
			_, sys := r.system("DEEP", core.NDPETOpt, nil)
			eng := sys.Store.NewETEngine(p.Metric)
			totalLines := 0
			rec := 0.0
			for qi, q := range w.ds.Queries {
				nn, lines := eng.ExactKNN(q, 10)
				totalLines += lines
				rec += recallNN(nn, w.gt[qi])
			}
			per := float64(totalLines*64) / float64(nq*len(w.ds.Vectors))
			return mkRow("ANSMET ET scan", per, rec/float64(nq), true)
		},

		// SQ8 + ET: quantized store, approximate distances.
		func() []string {
			sq, err := quantize.FitScalar(w.ds.Vectors)
			if err != nil {
				panic(err)
			}
			qv := make([][]float32, len(w.ds.Vectors))
			for i, v := range w.ds.Vectors {
				qv[i] = sq.Quantize(v)
			}
			st, err := core.BuildStore(rows.MustPack(qv, vecmath.Uint8),
				layout.SimpleHeuristicSchedule(vecmath.Uint8), prefixelim.Config{})
			if err != nil {
				panic(err)
			}
			eng := st.NewETEngine(p.Metric)
			totalLines := 0
			rec := 0.0
			for qi, q := range w.ds.Queries {
				nn, lines := eng.ExactKNN(sq.Quantize(q), 10)
				totalLines += lines
				rec += recallNN(nn, w.gt[qi])
			}
			per := float64(totalLines*64) / float64(nq*len(w.ds.Vectors))
			return mkRow("SQ8 + ET scan", per, rec/float64(nq), false)
		},

		// PQ with partial-element ET (§4.3).
		func() []string {
			pq, err := quantize.FitPQ(w.ds.Vectors, 16, 64, 10, r.Scale.Seed)
			if err != nil {
				panic(err)
			}
			codes := make([][]uint8, len(w.ds.Vectors))
			for i, v := range w.ds.Vectors {
				codes[i] = pq.Encode(v)
			}
			totalFetched := 0
			rec := 0.0
			for qi, q := range w.ds.Queries {
				tab := pq.NewTable(q, p.Metric)
				ids, _, fetched, _ := tab.ETScan(codes, 10)
				totalFetched += fetched
				rec += dataset.RecallAtK(ids, w.gt[qi])
			}
			per := float64(totalFetched) / float64(nq*len(w.ds.Vectors)) // 1 B per codeword
			return mkRow("PQ16x64 + partial-element ET", per, rec/float64(nq), false)
		},
	}
	rows := make([][]string, len(jobs))
	r.parMap(len(jobs), func(i int) { rows[i] = jobs[i]() })
	t.Rows = rows

	t.Notes = append(t.Notes,
		"quantization fetches less but loses accuracy; ANSMET's bit-plane ET cuts fetches with zero loss (§4.3)")
	return t
}
