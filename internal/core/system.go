package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ansmet/internal/bitplane"
	"ansmet/internal/dram"
	"ansmet/internal/engine"
	"ansmet/internal/fault"
	"ansmet/internal/hnsw"
	"ansmet/internal/ivf"
	"ansmet/internal/layout"
	"ansmet/internal/partition"
	"ansmet/internal/polling"
	"ansmet/internal/precision"
	"ansmet/internal/prefixelim"
	"ansmet/internal/rows"
	"ansmet/internal/sim"
	"ansmet/internal/stats"
	"ansmet/internal/trace"
	"ansmet/internal/vecmath"
)

// SystemConfig selects the design point and platform parameters.
type SystemConfig struct {
	Design Design

	Mem  dram.Config
	Host sim.HostParams
	NDP  sim.NDPParams

	// Scheme and SubVectorBytes control rank partitioning (§5.3); the
	// paper's default is hybrid with S = 1 kB.
	Scheme         partition.Scheme
	SubVectorBytes int
	// ReplicateTopLayers replicates the vectors of the top N HNSW layers
	// to every rank group (0 disables).
	ReplicateTopLayers int

	// Poll is the result-retrieval policy; nil defaults to the
	// conventional fixed 100 ns interval.
	Poll polling.Policy

	// SampleSize is the offline sampling-set size (paper default: 100).
	SampleSize int
	LayoutOpts layout.Options
	Seed       uint64

	// InFlightFactor bounds query concurrency in NDP mode.
	InFlightFactor int

	// BeamBatch pops this many candidates per base-layer hop (delayed-
	// synchronization traversal), amortizing the per-hop offload and
	// polling synchronization; 1 is the textbook sequential beam search.
	BeamBatch int

	// RecallTarget, when in (0, 1), enables adaptive mixed-precision search
	// for the ET designs: a per-partition minimum plane depth is derived at
	// build time from cluster radius statistics (System.Precision) and the
	// query paths escalate fetch depth only where the top-k margin is
	// tight. 0 (and 1) keep the fixed-depth machinery — results are then
	// byte-identical to a build without the knob. The derivation's k-means
	// is seeded with Seed.
	RecallTarget float64

	// Fault, when non-nil, interposes a deterministic fault injector on the
	// serving path (internal/fault) and implies Resilience.Enabled: NDP
	// comparisons can fail per the schedule, and the resilient wrapper
	// retries, trips per-rank circuit breakers and degrades to the CPU
	// exact engine.
	Fault *fault.Schedule
	// Resilience tunes the fault-tolerant serving path; set Enabled to wrap
	// the engine even without an injected fault schedule (protecting
	// against real hardware faults, at the cost of a per-comparison breaker
	// check).
	Resilience engine.ResilienceConfig
}

// DefaultSystemConfig returns the paper's platform defaults for a design.
// All designs default to the conventional fixed 100 ns polling interval;
// the adaptive policy of §5.4 is evaluated explicitly in the Fig. 9
// experiment (it improves per-query latency, but at saturation the trace
// replayer's query pacing under adaptive polling is noisy — see
// EXPERIMENTS.md).
func DefaultSystemConfig(d Design) SystemConfig {
	cfg := SystemConfig{
		Design:             d,
		Mem:                dram.DefaultConfig(),
		Host:               sim.DefaultHost(),
		NDP:                sim.DefaultNDP(),
		Scheme:             partition.Hybrid,
		SubVectorBytes:     1024,
		ReplicateTopLayers: 4,
		Poll:               polling.Conventional{IntervalNs: 100},
		SampleSize:         100,
		LayoutOpts:         layout.DefaultOptions(),
		Seed:               1,
	}
	cfg.BeamBatch = 8
	return cfg
}

// System is a fully preprocessed ANSMET instance over one dataset: encoded
// storage, partitioning map and timing configuration. It is a view — a
// deterministic function of (slab, index, cfg), built once by NewSystem and
// not changed afterwards (SetTombstones, before it is shared, is the one
// thing its builder adds). It holds no engine: NewWorkerEngine makes one per
// searcher, and run is the one loop that drives queries through them.
type System struct {
	Cfg    SystemConfig
	Elem   vecmath.ElemType
	Metric vecmath.Metric
	Dim    int

	Store    *Store // nil for the Base designs
	Index    *hnsw.Index
	Part     *partition.Map
	SimCfg   sim.Config
	Analysis *layout.Analysis // nil unless the design samples
	Params   layout.Params    // zero unless the design samples
	// Precision is the per-partition static depth map, stored alongside
	// the layout params; nil unless RecallTarget enabled it.
	Precision *precision.Map

	// PreprocessSeconds is the wall time of the offline pass: sampling,
	// parameter search and layout transformation (Table 4).
	PreprocessSeconds float64

	// Resilient serving path (nil/zero unless configured): the shared fault
	// injector, per-rank circuit breakers and event counters. Every
	// NewWorkerEngine is then an *engine.Resilient wrapping the NDP path
	// with a CPU exact fallback.
	Injector *fault.Injector
	Breakers *engine.BreakerSet
	Faults   *engine.Counters

	// rows is the slab the system was built over, shared with Index, Store
	// and every exact engine handed out.
	rows *rows.Slab
	// tomb is the deletion bitmap of a live-mutable database and live the
	// filter made from it; both nil otherwise (SetTombstones).
	tomb *TombSet
	live func(uint32) bool

	// mu serializes runs on this System: the parallel experiment pipeline
	// may dispatch several cells against one cached System at once, and with
	// a fault schedule the shared injector's sequence — so every run's
	// result — is a function of the order runs take it in.
	mu sync.Mutex
}

// NewSystem preprocesses the slab's rows — as many as it holds now — for the
// configured design. The index must have been built over the same slab. A
// system is a view of (slab, index, cfg) and changes neither, so it can be
// built at any point of their life; mutable.go says how over a growing slab.
func NewSystem(rs *rows.Slab, metric vecmath.Metric, index *hnsw.Index, cfg SystemConfig) (*System, error) {
	if rs == nil || rs.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if err := cfg.Design.Buildable(rs.Len()); err != nil {
		return nil, err
	}
	if cfg.Poll == nil {
		cfg.Poll = polling.Conventional{IntervalNs: 100}
	}
	elem := rs.Elem()
	s := &System{
		Cfg: cfg, Elem: elem, Metric: metric, Dim: rs.Dim(), Index: index,
		rows: rs,
	}
	start := time.Now()

	// Offline sampling pass (dual-granularity / prefix designs). A Base
	// design stores plain rows and takes no schedule.
	var sched bitplane.Schedule
	var prefix prefixelim.Config
	switch cfg.Design {
	case NDPDimET:
		sched = bitplane.PlainSchedule(elem)
	case NDPBitET:
		sched = bitplane.UniformSchedule(elem, 0, 1)
	case NDPET, CPUET:
		sched = layout.SimpleHeuristicSchedule(elem)
	case NDPETDual, NDPETOpt, CPUETOpt:
		an, err := s.analyze(cfg)
		if err != nil {
			return nil, err
		}
		s.Analysis = an
		s.Params = an.BestParams(cfg.Design.UsesPrefixElim())
		sched = s.Params.Schedule(elem)
		if s.Params.PrefixLen > 0 {
			prefix = prefixelim.Config{
				Elem: elem, Dim: s.Dim,
				PrefixLen: s.Params.PrefixLen, PrefixVal: s.Params.PrefixVal,
			}
		}
	}

	// Storage. A Base design fetches the plain row, whose line count is the
	// backup footprint.
	backupLines := rows.Lines(elem, s.Dim)
	lines, groupLines := backupLines, []int{backupLines}
	if cfg.Design.UsesET() {
		store, err := BuildStore(rs, sched, prefix)
		if err != nil {
			return nil, err
		}
		s.Store = store
		lines = store.SlotLines()
		groupLines = store.Layout.GroupLineCounts()
	}

	// Per-partition static precision (adaptive mixed-precision search).
	if s.Store != nil && cfg.RecallTarget > 0 && cfg.RecallTarget < 1 {
		all := s.decodeRows(rs.Len(), func(i int) uint32 { return uint32(i) })
		pm, err := precision.Build(all, s.Store.Layout, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s.Precision = pm
	}

	// Partitioning.
	part, err := partition.New(cfg.Scheme, cfg.Mem.Ranks(), lines,
		cfg.SubVectorBytes, cfg.Mem.BanksPerRank(), cfg.Mem.RowBytes)
	if err != nil {
		return nil, err
	}
	if cfg.ReplicateTopLayers > 0 && index != nil && part.Groups() > 1 {
		// Replicate the top layers, but never more than ~2% of the dataset:
		// on the paper's billion-scale graphs four layers are a 0.14%
		// sliver, while on a small graph they can cover almost everything.
		budget := rs.Len() / 50
		if budget < 1 {
			budget = 1
		}
		for l := cfg.ReplicateTopLayers; l >= 1; l-- {
			ids := index.TopLayerIDs(l)
			if len(ids) <= budget || l == 1 {
				part.SetReplicated(ids)
				break
			}
		}
	}
	s.Part = part

	// Fault-tolerant serving path: the state every engine's resilient
	// wrapper shares (NewWorkerEngine).
	if cfg.Fault != nil || cfg.Resilience.Enabled {
		s.Injector = fault.NewInjector(cfg.Fault)
		s.Breakers = engine.NewBreakerSet(cfg.Mem.Ranks(), cfg.Resilience)
		s.Faults = &engine.Counters{}
	}

	// Polling estimator: measured line distribution when available, a
	// full-fetch point mass otherwise.
	var est polling.TaskEstimator
	if s.Analysis != nil {
		est = polling.NewTaskEstimator(s.Analysis.LineDistribution(sched))
	} else {
		dist := make([]float64, lines)
		dist[lines-1] = 1
		est = polling.NewTaskEstimator(dist)
	}

	s.SimCfg = sim.Config{
		Mem: cfg.Mem, UseNDP: cfg.Design.UsesNDP(),
		Host: cfg.Host, NDP: cfg.NDP,
		Part:           part,
		GroupLines:     groupLines,
		QueryLines:     backupLines,
		Poll:           cfg.Poll,
		Est:            est,
		InFlightFactor: cfg.InFlightFactor,
	}
	s.PreprocessSeconds = time.Since(start).Seconds()
	return s, nil
}

// analyze runs the sampling pass over a seeded random subset.
func (s *System) analyze(cfg SystemConfig) (*layout.Analysis, error) {
	total := s.rows.Len()
	n := cfg.SampleSize
	if n <= 0 {
		n = 100
	}
	if n > total {
		n = total
	}
	perm := stats.NewRNG(cfg.Seed).Perm(total)
	sample := s.decodeRows(n, func(i int) uint32 { return uint32(perm[i]) })
	return layout.Analyze(sample, s.Elem, s.Metric, cfg.LayoutOpts)
}

// decodeRows returns float32 copies of n of the slab's rows, the i-th being
// row id(i): what the offline passes that work on values (layout sampling,
// the precision map's k-means) are handed. One backing allocation.
func (s *System) decodeRows(n int, id func(i int) uint32) [][]float32 {
	v := s.rows.View()
	flat := make([]float32, 0, n*s.Dim)
	out := make([][]float32, n)
	for i := range out {
		flat = v.Decode(id(i), flat)
		out[i] = flat[i*s.Dim : (i+1)*s.Dim : (i+1)*s.Dim]
	}
	return out
}

// SetTombstones records the deletion bitmap of the live-mutable database the
// system is a view of (nil on an immutable one): every engine NewWorkerEngine
// makes afterwards consults it on the scan paths, and run filters the beam's
// results through it. Call it before the system is shared.
func (s *System) SetTombstones(t *TombSet) { s.tomb, s.live = t, t.Filter() }

// NewWorkerEngine is the one place an engine over this system is made and
// configured — engines are not safe for concurrent use, so every searcher
// (each of run's workers, each scratch of the serving database) needs one of
// its own. An ET design gets the store's engine with local per-rank early
// termination tested against a threshold scaled for the rank's 1/segments
// share of the dimensions (§5.3), the tombstone set, and — under a recall
// target — the adaptive beam mode in its pre-calibration state (depth bias 0
// and the target-derived escalation margin, what a fresh tuner would report);
// a Base design gets the exact engine over the rows. With resilience
// configured either is wrapped with the fault injector, retries, the
// system's shared breakers and counters, and a CPU exact fallback that
// guarantees correct distances for comparisons the primary cannot serve.
func (s *System) NewWorkerEngine() engine.Engine {
	var eng engine.Engine
	if s.Store == nil {
		eng = engine.NewExactOver(s.rows, s.Metric)
	} else {
		e := s.Store.NewETEngine(s.Metric)
		e.SetLocalSegments(s.Part.NumSegments())
		if s.Precision != nil && s.Faults == nil {
			// Resilience-wrapped engines never get the adaptive mode: the
			// fallback contract is exact distances, and a wrapped primary
			// mixing margin-slack accepts into degraded results would break
			// the bitwise fixed/adaptive degradation identity.
			e.SetPrecision(s.Precision, 0, precision.MarginForTarget(s.Cfg.RecallTarget))
		}
		e.SetTombstones(s.tomb)
		eng = e
	}
	if s.Faults != nil {
		primary := fault.WrapEngine(eng, s.Injector, s.Part.ServingRanks)
		fallback := engine.NewExactOver(s.rows, s.Metric)
		eng = engine.NewResilient(primary, fallback, s.Part.ServingRanks,
			s.Breakers, s.Faults, s.Cfg.Resilience)
	}
	return eng
}

// RunResult bundles the functional and timing outcomes of a query batch.
type RunResult struct {
	Results [][]hnsw.Neighbor
	Traces  []*trace.Query
	Report  *sim.Report
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
func (s *System) run(n, workers int, search func(eng engine.Engine, i int, rec *trace.Query) []hnsw.Neighbor) *RunResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s.Faults != nil {
		workers = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var base engine.CounterSnapshot
	var baseInj uint64
	if s.Faults != nil {
		base, baseInj = s.Faults.Snapshot(), s.Injector.TotalInjections()
	}
	out := &RunResult{
		Results: make([][]hnsw.Neighbor, n),
		Traces:  make([]*trace.Query, n),
	}
	var next atomic.Int64
	work := func() {
		eng := s.NewWorkerEngine()
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
	out.Report = sim.Run(s.SimCfg, out.Traces)
	if s.Faults != nil {
		d := s.Faults.Snapshot().Sub(base)
		out.Report.Resilience = &sim.ResilienceStats{
			Attempts:        d.Attempts,
			Retries:         d.Retries,
			Failures:        d.Failures,
			Fallbacks:       d.Fallbacks,
			BreakerTrips:    d.BreakerTrips,
			Probes:          d.Probes,
			Reenables:       d.Reenables,
			PanicRecoveries: d.Panics,
			FaultInjections: s.Injector.TotalInjections() - baseInj,
			DegradedRanks:   s.Breakers.DegradedRanks(),
		}
	}
	return out
}

// RunHNSW executes the queries functionally on the HNSW index (recording
// traces) and replays them on the timing model.
func (s *System) RunHNSW(queries [][]float32, k, ef int) *RunResult {
	return s.RunHNSWParallel(queries, k, ef, 1)
}

// RunHNSWParallel is RunHNSW with the functional searches fanned out over a
// bounded worker pool (workers <= 0 defaults to GOMAXPROCS); the RunResult
// is bit-identical to RunHNSW's (see run).
func (s *System) RunHNSWParallel(queries [][]float32, k, ef, workers int) *RunResult {
	return s.run(len(queries), workers, func(eng engine.Engine, i int, rec *trace.Query) []hnsw.Neighbor {
		return s.Index.SearchFilteredInto(queries[i], k, ef, s.Cfg.BeamBatch, s.live, eng, rec, nil)
	})
}

// RunIVF executes the queries against an IVF index built over the same
// vectors, using this system's engine and timing model.
func (s *System) RunIVF(ix *ivf.Index, queries [][]float32, k, ef, nprobe int) *RunResult {
	return s.run(len(queries), 1, func(eng engine.Engine, i int, rec *trace.Query) []hnsw.Neighbor {
		return ix.SearchFiltered(queries[i], k, ef, nprobe, s.live, eng, rec)
	})
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
