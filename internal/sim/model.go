package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/ivf"
	"ansmet/internal/partition"
	"ansmet/internal/polling"
	"ansmet/internal/precision"
	"ansmet/internal/rows"
	"ansmet/internal/trace"
)

// Model is one design point of the simulated platform: a functional view
// (core.System, embedded), the placement and replay configuration over it
// and the precision map a recall target derives. run is the one loop that
// drives queries through the view's worker engines and replays their
// traces. A run only reads the Model, so several may proceed on it at once.
type Model struct {
	*core.System
	// Timing is this design point's configuration; NewModel fixed its
	// placement, and Host, NDP, Poll, InFlightFactor may be edited before
	// the first run.
	Timing Config
	// Precision is the per-partition static depth map of adaptive
	// mixed-precision search; nil unless Timing.RecallTarget enabled it.
	Precision *precision.Map
}

// NewModel puts the platform cfg describes (DefaultConfig is the paper's)
// around a functional view: the partition map over cfg.Mem, the precision
// map under a recall target, and what the replay reads of the view.
func NewModel(sys *core.System, cfg Config) (*Model, error) {
	// The plain row: a Base design's footprint and one fetch group, and
	// every query's install.
	queryLines := rows.Lines(sys.Elem, sys.Dim)
	lines, groupLines := queryLines, []int{queryLines}
	if sys.Store != nil {
		lines, groupLines = sys.Store.SlotLines(), sys.Store.Layout.GroupLineCounts()
	}
	part, err := partition.New(cfg.Scheme, cfg.Mem.Ranks(), lines,
		cfg.SubVectorBytes, cfg.Mem.BanksPerRank(), cfg.Mem.RowBytes)
	if err != nil {
		return nil, err
	}
	if cfg.ReplicateTopLayers > 0 && sys.Index != nil && part.Groups() > 1 {
		// Replicate the top layers, but never more than ~2% of the dataset:
		// on the paper's billion-scale graphs four layers are a 0.14%
		// sliver, while on a small graph they can cover almost everything.
		budget := max(sys.Rows().Len()/50, 1)
		for l := cfg.ReplicateTopLayers; l >= 1; l-- {
			ids := sys.Index.TopLayerIDs(l)
			if len(ids) <= budget || l == 1 {
				part.SetReplicated(ids)
				break
			}
		}
	}
	m := &Model{System: sys}
	if sys.Store != nil && cfg.RecallTarget > 0 && cfg.RecallTarget < 1 {
		v := sys.Rows().View()
		all := make([][]float32, v.Len())
		for i := range all {
			all[i] = v.Decode(uint32(i), make([]float32, 0, sys.Dim))
		}
		if m.Precision, err = precision.Build(all, sys.Store.Layout, sys.Cfg.Seed); err != nil {
			return nil, err
		}
	}
	// Polling estimator: the sampled line distribution when the design
	// samples, a full-fetch point mass otherwise.
	if sys.Analysis != nil {
		cfg.Est = polling.NewTaskEstimator(sys.Analysis.LineDistribution(sys.Params.Schedule(sys.Elem)))
	} else {
		dist := make([]float64, lines)
		dist[len(dist)-1] = 1
		cfg.Est = polling.NewTaskEstimator(dist)
	}
	cfg.UseNDP = sys.Cfg.Design.UsesNDP()
	cfg.Part, cfg.GroupLines, cfg.QueryLines = part, groupLines, queryLines
	m.Timing = cfg
	return m, nil
}

// NewWorkerEngine is the view's engine with what the platform adds: local
// per-rank early termination over the partition's segments (§5.3), and
// under a recall target the adaptive beam mode as a fresh tuner would set
// it (depth bias 0, the target's margin).
func (m *Model) NewWorkerEngine() engine.Engine {
	eng := m.System.NewWorkerEngine()
	if et, ok := eng.(*core.ETEngine); ok {
		et.SetLocalSegments(m.Timing.Part.NumSegments())
		if m.Precision != nil {
			et.SetPrecision(m.Precision, 0, precision.MarginForTarget(m.Timing.RecallTarget))
		}
	}
	return eng
}

// RunResult bundles the functional and timing outcomes of a query batch.
type RunResult struct {
	Results [][]hnsw.Neighbor
	Traces  []*trace.Query
	Report  *Report
}

// IDs extracts the result id lists (for recall computation).
func (r *RunResult) IDs() [][]uint32 {
	out := make([][]uint32, len(r.Results))
	for i, res := range r.Results {
		ids := make([]uint32, len(res))
		for j, n := range res {
			ids[j] = n.ID
		}
		out[i] = ids
	}
	return out
}

// Recall is the mean recall@k of the run's results against the ground truth
// gt (one list per query, in query order).
func (r *RunResult) Recall(gt [][]uint32) float64 {
	sum := 0.0
	for qi, ids := range r.IDs() {
		sum += dataset.RecallAtK(ids, gt[qi])
	}
	return sum / float64(len(r.Results))
}

// Stream times the run as a sustained query stream, the paper's regime: its
// traces repeated to at least n queries and replayed, so the timing is
// throughput-bound rather than bound by the latency of a handful of queries.
// A run of n queries or more is its own stream and keeps its Report.
func (m *Model) Stream(run *RunResult, n int) *Report {
	nq := len(run.Traces)
	if nq == 0 || nq >= n {
		return run.Report
	}
	reps := (n + nq - 1) / nq
	traces := make([]*trace.Query, 0, reps*nq)
	for range reps {
		traces = append(traces, run.Traces...)
	}
	return Run(m.Timing, traces)
}

// run is the one query loop: n queries searched functionally by up to
// workers goroutines, each on an engine of its own from NewWorkerEngine,
// every query recording its trace; then one timing replay over the traces in
// query order. Engines are deterministic and carry only per-query scratch, so
// a query's trace does not depend on which worker served it and the result
// is bit-identical at any worker count, and beside any other run on m.
func (m *Model) run(n, workers int, search func(eng engine.Engine, i int, rec *trace.Query) []hnsw.Neighbor) *RunResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := &RunResult{
		Results: make([][]hnsw.Neighbor, n),
		Traces:  make([]*trace.Query, n),
	}
	var next atomic.Int64
	work := func() {
		eng := m.NewWorkerEngine()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			rec := &trace.Query{}
			out.Results[i] = search(eng, i, rec)
			out.Traces[i] = rec
		}
	}
	if workers = min(workers, n); workers <= 1 {
		work() // on the caller's goroutine, where its recover can see a panic
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	out.Report = Run(m.Timing, out.Traces)
	return out
}

// RunHNSW executes already-quantized queries functionally on the HNSW index
// (recording traces) and replays them on the timing model.
func (m *Model) RunHNSW(queries [][]float32, k, ef int) *RunResult {
	return m.RunHNSWParallel(queries, k, ef, 1)
}

// RunHNSWParallel is RunHNSW with the functional searches fanned out over a
// bounded worker pool (workers <= 0 defaults to GOMAXPROCS); the RunResult
// is bit-identical to RunHNSW's (see run).
func (m *Model) RunHNSWParallel(queries [][]float32, k, ef, workers int) *RunResult {
	return m.run(len(queries), workers, func(eng engine.Engine, i int, rec *trace.Query) []hnsw.Neighbor {
		return m.Index.SearchFilteredInto(queries[i], k, ef, m.Cfg.BeamBatch, m.Live(), eng, rec, nil)
	})
}

// RunIVF executes the queries against an IVF index built over the same
// vectors, using this model's engine and timing configuration.
func (m *Model) RunIVF(ix *ivf.Index, queries [][]float32, k, ef, nprobe int) *RunResult {
	return m.run(len(queries), 1, func(eng engine.Engine, i int, rec *trace.Query) []hnsw.Neighbor {
		return ix.SearchFiltered(queries[i], k, ef, nprobe, m.Live(), eng, rec)
	})
}

// Run is RunHNSW over raw queries, each checked (its length, every component
// finite) and quantized to the element type first: a bad input is an error
// naming its query, not a panic deep in an engine.
func (m *Model) Run(queries [][]float32, k, ef int) (*RunResult, error) {
	if k <= 0 || ef < k {
		return nil, fmt.Errorf("sim: need 0 < k <= ef (k=%d ef=%d)", k, ef)
	}
	quant := make([][]float32, len(queries))
	for i, q := range queries {
		if len(q) != m.Dim {
			return nil, fmt.Errorf("sim: query %d has dim %d, want %d", i, len(q), m.Dim)
		}
		quant[i] = make([]float32, len(q))
		for d, x := range q {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return nil, fmt.Errorf("sim: query %d component %d is %v", i, d, x)
			}
			quant[i][d] = m.Elem.Quantize(x)
		}
	}
	return m.RunHNSW(quant, k, ef), nil
}
