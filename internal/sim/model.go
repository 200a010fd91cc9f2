package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ansmet/internal/core"
	"ansmet/internal/engine"
	"ansmet/internal/fault"
	"ansmet/internal/hnsw"
	"ansmet/internal/ivf"
	"ansmet/internal/polling"
	"ansmet/internal/rows"
	"ansmet/internal/trace"
)

// Model is one design point of the simulated platform: a functional view
// (core.System, embedded), the replay configuration over it and, under a
// fault schedule (InjectFaults), the injector, breakers and counters every
// worker engine's resilient wrap shares. run is the one loop that drives
// queries through such engines and replays their traces.
type Model struct {
	*core.System
	// Timing is the replay configuration of this design point; its platform
	// parameters (Host, NDP, Poll, InFlightFactor) may be edited before the
	// first run.
	Timing Config

	// The fault model; nil unless InjectFaults set it.
	Injector   *fault.Injector
	Breakers   *fault.BreakerSet
	Faults     *fault.Counters
	resilience fault.ResilienceConfig

	// mu serializes runs on this Model: the parallel experiment pipeline may
	// dispatch several cells against one cached Model at once, and with a
	// fault schedule the shared injector's sequence — so every run's result —
	// is a function of the order runs take it in.
	mu sync.Mutex
}

// NewModel puts the paper's platform defaults around a functional view:
// DefaultHost, DefaultNDP and, for every design, the conventional fixed
// 100 ns polling interval (the adaptive policy of §5.4 is evaluated in Fig. 9;
// at saturation the replayer's pacing under it is noisy — see EXPERIMENTS.md).
func NewModel(sys *core.System) *Model {
	// The plain row: a Base design's one fetch group, and every query's install.
	queryLines := rows.Lines(sys.Elem, sys.Dim)
	groupLines := []int{queryLines}
	if sys.Store != nil {
		groupLines = sys.Store.Layout.GroupLineCounts()
	}
	// Polling estimator: the sampled line distribution when the design
	// samples, a full-fetch point mass otherwise.
	var est polling.TaskEstimator
	if sys.Analysis != nil {
		est = polling.NewTaskEstimator(sys.Analysis.LineDistribution(sys.Params.Schedule(sys.Elem)))
	} else {
		dist := make([]float64, sys.Part.LinesPerVector())
		dist[len(dist)-1] = 1
		est = polling.NewTaskEstimator(dist)
	}
	return &Model{System: sys, Timing: Config{
		Mem: sys.Cfg.Mem, UseNDP: sys.Cfg.Design.UsesNDP(),
		Host: DefaultHost(), NDP: DefaultNDP(),
		Part:       sys.Part,
		GroupLines: groupLines,
		QueryLines: queryLines,
		Poll:       polling.Conventional{IntervalNs: 100},
		Est:        est,
	}}
}

// InjectFaults, called before the first run, makes every worker engine fail
// per the schedule behind a resilient wrapper (tuned by rc) that retries,
// trips per-rank circuit breakers and degrades to the CPU exact engine. It
// returns m.
func (m *Model) InjectFaults(s *fault.Schedule, rc fault.ResilienceConfig) *Model {
	m.Injector = fault.NewInjector(s)
	m.Breakers = fault.NewBreakerSet(m.Cfg.Mem.Ranks(), rc)
	m.Faults = &fault.Counters{}
	m.resilience = rc
	return m
}

// NewWorkerEngine is the view's engine (core.System.NewWorkerEngine) and,
// under a fault schedule, that engine behind the injector, retries, the
// model's shared breakers and counters, and a CPU exact fallback that
// guarantees correct distances for comparisons the primary cannot serve.
func (m *Model) NewWorkerEngine() engine.Engine {
	eng := m.System.NewWorkerEngine()
	if m.Faults == nil {
		return eng
	}
	if et, ok := eng.(*core.ETEngine); ok {
		// Resilience-wrapped engines never get the adaptive mode: the
		// fallback contract is exact distances, and a wrapped primary mixing
		// margin-slack accepts into degraded results would break the bitwise
		// fixed/adaptive degradation identity.
		et.SetPrecision(nil, 0, 0)
	}
	primary := fault.WrapEngine(eng, m.Injector, m.Part.ServingRanks)
	fallback := engine.NewExactOver(m.Rows(), m.Metric)
	return fault.NewResilient(primary, fallback, m.Part.ServingRanks, m.Breakers, m.Faults, m.resilience)
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

// run is the one query loop: n queries searched functionally by up to
// workers goroutines, each on an engine of its own from NewWorkerEngine,
// every query recording its trace; then one timing replay over the traces in
// query order, and the resilience counters' delta over the run attached to
// the report. Engines are deterministic and carry only per-query scratch, so
// a query's trace does not depend on which worker served it and the result
// is bit-identical at any worker count — except under a fault schedule,
// where the injection sequence depends on the global comparison order and
// the run takes one worker to stay a function of its inputs.
func (m *Model) run(n, workers int, search func(eng engine.Engine, i int, rec *trace.Query) []hnsw.Neighbor) *RunResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if m.Faults != nil {
		workers = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var base fault.CounterSnapshot
	var baseInj uint64
	if m.Faults != nil {
		base, baseInj = m.Faults.Snapshot(), m.Injector.TotalInjections()
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
	if m.Faults != nil {
		d := m.Faults.Snapshot().Sub(base)
		out.Report.Resilience = &ResilienceStats{
			Attempts:        d.Attempts,
			Retries:         d.Retries,
			Failures:        d.Failures,
			Fallbacks:       d.Fallbacks,
			BreakerTrips:    d.BreakerTrips,
			Probes:          d.Probes,
			Reenables:       d.Reenables,
			PanicRecoveries: d.Panics,
			FaultInjections: m.Injector.TotalInjections() - baseInj,
			DegradedRanks:   m.Breakers.DegradedRanks(),
		}
	}
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
