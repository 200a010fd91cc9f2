package core

import (
	"fmt"
	"time"

	"ansmet/internal/bitplane"
	"ansmet/internal/dram"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/layout"
	"ansmet/internal/partition"
	"ansmet/internal/precision"
	"ansmet/internal/prefixelim"
	"ansmet/internal/rows"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// SystemConfig selects the design point and what the functional view is
// built from: the stored layout, the rank partitioning over the memory
// geometry, the beam batch and the recall target. The platform's timing and
// fault model are the simulator's (sim.Model).
type SystemConfig struct {
	Design Design

	// Mem is the memory geometry the partition map lays vectors out over.
	Mem dram.Config

	// Scheme and SubVectorBytes control rank partitioning (§5.3); the
	// paper's default is hybrid with S = 1 kB.
	Scheme         partition.Scheme
	SubVectorBytes int
	// ReplicateTopLayers replicates the vectors of the top N HNSW layers
	// to every rank group (0 disables).
	ReplicateTopLayers int

	// SampleSize is the offline sampling-set size (paper default: 100).
	SampleSize int
	LayoutOpts layout.Options
	Seed       uint64

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
}

// DefaultSystemConfig returns the paper's defaults for a design.
func DefaultSystemConfig(d Design) SystemConfig {
	return SystemConfig{
		Design:             d,
		Mem:                dram.DefaultConfig(),
		Scheme:             partition.Hybrid,
		SubVectorBytes:     1024,
		ReplicateTopLayers: 4,
		SampleSize:         100,
		LayoutOpts:         layout.DefaultOptions(),
		Seed:               1,
		BeamBatch:          8,
	}
}

// System is a fully preprocessed ANSMET instance over one dataset: encoded
// storage and partitioning map. It is a view — a deterministic function of
// (slab, index, cfg), built once by NewSystem and not changed afterwards
// (SetTombstones, before it is shared, is the one thing its builder adds).
// It holds no engine: NewWorkerEngine makes one per searcher. The timing
// replay and the fault model over it are the simulator's (sim.Model).
type System struct {
	Cfg    SystemConfig
	Elem   vecmath.ElemType
	Metric vecmath.Metric
	Dim    int

	Store    *Store // nil for the Base designs
	Index    *hnsw.Index
	Part     *partition.Map
	Analysis *layout.Analysis // nil unless the design samples
	Params   layout.Params    // zero unless the design samples
	// Precision is the per-partition static depth map, stored alongside
	// the layout params; nil unless RecallTarget enabled it.
	Precision *precision.Map

	// PreprocessSeconds is the wall time of the offline pass: sampling,
	// parameter search and layout transformation (Table 4).
	PreprocessSeconds float64

	// rows is the slab the system was built over, shared with Index, Store
	// and every exact engine handed out.
	rows *rows.Slab
	// tomb is the deletion bitmap of a live-mutable database and live the
	// filter made from it; both nil otherwise (SetTombstones).
	tomb *TombSet
	live func(uint32) bool
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

	// Storage. A Base design fetches the plain row.
	lines := rows.Lines(elem, s.Dim)
	if cfg.Design.UsesET() {
		store, err := BuildStore(rs, sched, prefix)
		if err != nil {
			return nil, err
		}
		s.Store = store
		lines = store.SlotLines()
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
// makes afterwards consults it on the scan paths, and Live hands its filter
// to whoever searches the index. Call it before the system is shared.
func (s *System) SetTombstones(t *TombSet) { s.tomb, s.live = t, t.Filter() }

// Live returns the tombstone filter a search over Index applies to its
// results (nil on an immutable database).
func (s *System) Live() func(uint32) bool { return s.live }

// Rows returns the slab the system was built over.
func (s *System) Rows() *rows.Slab { return s.rows }

// NewWorkerEngine is the one place an engine over this system is made and
// configured — engines are not safe for concurrent use, so every searcher
// (each scratch of the serving database, each worker of a simulated run)
// needs one of its own. An ET design gets the store's engine with local
// per-rank early termination tested against a threshold scaled for the
// rank's 1/segments share of the dimensions (§5.3), the tombstone set, and —
// under a recall target — the adaptive beam mode in its pre-calibration
// state (depth bias 0 and the target-derived escalation margin, what a fresh
// tuner would report); a Base design gets the exact engine over the rows.
func (s *System) NewWorkerEngine() engine.Engine {
	if s.Store == nil {
		return engine.NewExactOver(s.rows, s.Metric)
	}
	e := s.Store.NewETEngine(s.Metric)
	e.SetLocalSegments(s.Part.NumSegments())
	if s.Precision != nil {
		e.SetPrecision(s.Precision, 0, precision.MarginForTarget(s.Cfg.RecallTarget))
	}
	e.SetTombstones(s.tomb)
	return e
}
