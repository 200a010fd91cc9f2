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
	// byte-identical to a build without the knob.
	RecallTarget float64
	// PrecisionOpts tunes the per-partition precision derivation; zero
	// values take defaults (Seed inherits SystemConfig.Seed). Ignored
	// unless RecallTarget is in (0, 1).
	PrecisionOpts precision.BuildConfig

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
// storage, distance engine, partitioning map and timing configuration.
type System struct {
	Cfg    SystemConfig
	Elem   vecmath.ElemType
	Metric vecmath.Metric
	Dim    int

	Store    *Store // nil for the Base designs
	Engine   engine.Engine
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
	// injector, per-rank circuit breakers and event counters. Engine (and
	// every NewWorkerEngine) is then an *engine.Resilient wrapping the NDP
	// path with a CPU exact fallback.
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

	// mu serializes runs on this System: the shared Engine keeps per-query
	// scratch and is not safe for concurrent use, and the parallel
	// experiment pipeline may dispatch several cells against one cached
	// System at once.
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

	// Offline sampling pass (dual-granularity / prefix designs).
	var sched bitplane.Schedule
	var prefix prefixelim.Config
	switch cfg.Design {
	case CPUBase, NDPBase:
		sched = bitplane.PlainSchedule(elem) // engine is exact; schedule only sizes lines
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

	// Engine + storage.
	backupLines := (s.Dim*elem.Bytes() + 63) / 64
	var lines int
	var groupLines []int
	if cfg.Design.UsesET() {
		store, err := BuildStore(rs, sched, prefix)
		if err != nil {
			return nil, err
		}
		s.Store = store
		s.Engine = store.NewETEngine(metric)
		lines = store.SlotLines()
		groupLines = store.Layout.GroupLineCounts()
	} else {
		s.Engine = engine.NewExactOver(rs, metric)
		lines = s.Engine.LinesPerVector()
		groupLines = []int{lines}
	}

	// Per-partition static precision (adaptive mixed-precision search).
	if s.Store != nil && cfg.RecallTarget > 0 && cfg.RecallTarget < 1 {
		pcfg := cfg.PrecisionOpts
		if pcfg.Seed == 0 {
			pcfg.Seed = cfg.Seed
		}
		all := s.decodeRows(rs.Len(), func(i int) uint32 { return uint32(i) })
		pm, err := precision.Build(all, s.Store.Layout, pcfg)
		if err != nil {
			return nil, err
		}
		s.Precision = pm
		if ee, ok := s.Engine.(*ETEngine); ok {
			// The beam path honors the static schedule immediately: depth
			// bias 0 and the target-derived escalation margin are the
			// pre-calibration state a fresh tuner would report, so serial
			// and parallel runs (worker engines get the same wiring in
			// NewWorkerEngine) stay byte-identical.
			ee.SetPrecision(pm, 0, precision.MarginForTarget(cfg.RecallTarget))
		}
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
	if ee, ok := s.Engine.(*ETEngine); ok {
		// Local per-rank early termination tests against a threshold scaled
		// for the rank's 1/segments share of the dimensions (§5.3).
		ee.SetLocalSegments(part.NumSegments())
	}

	// Fault-tolerant serving path: interpose the injector (if any) and wrap
	// the engine with retries, per-rank circuit breakers and CPU fallback.
	if cfg.Fault != nil || cfg.Resilience.Enabled {
		s.Injector = fault.NewInjector(cfg.Fault)
		s.Breakers = engine.NewBreakerSet(cfg.Mem.Ranks(), cfg.Resilience)
		s.Faults = &engine.Counters{}
		s.Engine = s.wrapResilient(s.Engine)
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

// SetTombstones hands the system the deletion bitmap of the live-mutable
// database it is a view of (nil on an immutable one): the shared engine and
// every worker engine consult it on the scan paths, the Run* loops filter
// the beam's results through it. Call it before the system is shared.
func (s *System) SetTombstones(t *TombSet) {
	s.tomb, s.live = t, t.Filter()
	if ee, ok := s.Engine.(*ETEngine); ok {
		ee.SetTombstones(t)
	}
}

// resilienceBaseline snapshots the shared counters before a run, so the
// attached report shows per-run deltas rather than lifetime totals.
func (s *System) resilienceBaseline() (engine.CounterSnapshot, uint64) {
	if s.Faults == nil {
		return engine.CounterSnapshot{}, 0
	}
	return s.Faults.Snapshot(), s.Injector.TotalInjections()
}

// attachResilience fills the report's resilience section from the counter
// deltas since the baseline (no-op when resilience is disabled).
func (s *System) attachResilience(r *sim.Report, base engine.CounterSnapshot, baseInj uint64) {
	if s.Faults == nil || r == nil {
		return
	}
	d := s.Faults.Snapshot().Sub(base)
	r.Resilience = &sim.ResilienceStats{
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

// RunResult bundles the functional and timing outcomes of a query batch.
type RunResult struct {
	Results [][]hnsw.Neighbor
	Traces  []*trace.Query
	Report  *sim.Report
}

// RunHNSW executes the queries functionally on the HNSW index (recording
// traces) and replays them on the timing model.
func (s *System) RunHNSW(queries [][]float32, k, ef int) *RunResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	base, baseInj := s.resilienceBaseline()
	out := &RunResult{}
	for _, q := range queries {
		rec := &trace.Query{}
		res := s.Index.SearchFilteredInto(q, k, ef, s.Cfg.BeamBatch, s.live, s.Engine, rec, nil)
		out.Results = append(out.Results, res)
		out.Traces = append(out.Traces, rec)
	}
	out.Report = sim.Run(s.SimCfg, out.Traces)
	s.attachResilience(out.Report, base, baseInj)
	return out
}

// RunHNSWParallel is RunHNSW with the functional searches fanned out over a
// bounded worker pool, each worker owning a private engine (NewWorkerEngine).
// Results and traces keep query order and the single timing replay runs over
// the ordered traces, so the RunResult is bit-identical to RunHNSW's: engines
// are deterministic and carry only per-query scratch, making each query's
// trace independent of which worker serves it. workers <= 0 defaults to
// GOMAXPROCS. With fault injection enabled the injection sequence depends on
// the global comparison order, so the run falls back to the serial path to
// stay deterministic.
func (s *System) RunHNSWParallel(queries [][]float32, k, ef, workers int) *RunResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 || s.Faults != nil {
		return s.RunHNSW(queries, k, ef)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &RunResult{
		Results: make([][]hnsw.Neighbor, len(queries)),
		Traces:  make([]*trace.Query, len(queries)),
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := s.NewWorkerEngine()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(queries) {
					return
				}
				rec := &trace.Query{}
				out.Results[i] = s.Index.SearchFilteredInto(queries[i], k, ef, s.Cfg.BeamBatch, s.live, eng, rec, nil)
				out.Traces[i] = rec
			}
		}()
	}
	wg.Wait()
	out.Report = sim.Run(s.SimCfg, out.Traces)
	return out
}

// RunIVF executes the queries against an IVF index built over the same
// vectors, using this system's engine and timing model.
func (s *System) RunIVF(ix *ivf.Index, queries [][]float32, k, ef, nprobe int) *RunResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	base, baseInj := s.resilienceBaseline()
	out := &RunResult{}
	for _, q := range queries {
		rec := &trace.Query{}
		res := ix.SearchFiltered(q, k, ef, nprobe, s.live, s.Engine, rec)
		out.Results = append(out.Results, res)
		out.Traces = append(out.Traces, rec)
	}
	out.Report = sim.Run(s.SimCfg, out.Traces)
	s.attachResilience(out.Report, base, baseInj)
	return out
}

// wrapResilient interposes the fault injector on base and wraps it in the
// resilient engine (shared breakers/counters, private scratch state). The
// CPU exact fallback guarantees correct distances for comparisons the
// primary cannot serve.
func (s *System) wrapResilient(base engine.Engine) engine.Engine {
	primary := fault.WrapEngine(base, s.Injector, s.Part.ServingRanks)
	fb := engine.NewExactOver(s.rows, s.Metric)
	return engine.NewResilient(primary, fb, s.Part.ServingRanks,
		s.Breakers, s.Faults, s.Cfg.Resilience)
}

// NewWorkerEngine creates an independent distance engine over this
// system's storage — engines are not safe for concurrent use, so parallel
// searchers need one each. Worker engines share the system's breakers,
// counters and fault injector when resilience is enabled.
func (s *System) NewWorkerEngine() engine.Engine {
	var base engine.Engine
	if s.Store != nil {
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
		base = e
	} else {
		base = engine.NewExactOver(s.rows, s.Metric)
	}
	if s.Faults != nil {
		return s.wrapResilient(base)
	}
	return base
}

// Replay re-runs the timing phase over previously recorded traces, e.g. to
// time a different stream length or after tweaking SimCfg.
func Replay(s *System, traces []*trace.Query) *sim.Report {
	return sim.Run(s.SimCfg, traces)
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
