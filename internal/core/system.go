package core

import (
	"fmt"
	"time"

	"ansmet/internal/bitplane"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/layout"
	"ansmet/internal/prefixelim"
	"ansmet/internal/rows"
	"ansmet/internal/vecmath"
)

// SystemConfig selects the design point and what the functional view is
// built from: the stored layout and the beam batch. Where the platform puts
// the vectors (memory geometry, rank partitioning), its recall target and
// its timing are the simulator's (sim.Model).
type SystemConfig struct {
	Design Design

	// SampleSize is the offline sampling-set size (paper default: 100).
	SampleSize int
	LayoutOpts layout.Options
	Seed       uint64

	// BeamBatch pops this many candidates per base-layer hop (delayed-
	// synchronization traversal), amortizing the per-hop offload and
	// polling synchronization; 1 is the textbook sequential beam search.
	BeamBatch int
}

// DefaultSystemConfig returns the paper's defaults for a design.
func DefaultSystemConfig(d Design) SystemConfig {
	return SystemConfig{
		Design:     d,
		SampleSize: 100,
		LayoutOpts: layout.DefaultOptions(),
		Seed:       1,
		BeamBatch:  engine.BeamBatch,
	}
}

// System is a fully preprocessed ANSMET instance over one dataset: its
// encoded storage. It is a deterministic function of (slab, index, cfg),
// built once by NewSystem and not changed afterwards (SetTombstones, before
// it is shared, is the one thing its builder adds).
// It holds no engine: NewWorkerEngine makes one per searcher. The timing
// replay over it is the simulator's (sim.Model).
type System struct {
	Cfg    SystemConfig
	Elem   vecmath.ElemType
	Metric vecmath.Metric
	Dim    int

	Store    *Store // nil for the Base designs
	Index    *hnsw.Index
	Analysis *layout.Analysis // nil unless the design samples
	Params   layout.Params    // zero unless the design samples

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

// NewSystem preprocesses the slab's rows for the configured design. The
// index must have been built over the same slab, and neither may grow
// afterwards: the store encodes the rows the slab holds now, once. A model
// of a live database is built over a copy of it (Database.NewSystem).
func NewSystem(rs *rows.Slab, metric vecmath.Metric, index *hnsw.Index, cfg SystemConfig) (*System, error) {
	if rs == nil || rs.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	elem := rs.Elem()
	s := &System{
		Cfg: cfg, Elem: elem, Metric: metric, Dim: rs.Dim(), Index: index,
		rows: rs,
	}
	start := time.Now()

	// Offline sampling pass (dual-granularity / prefix designs). A Base
	// design stores plain rows and takes no schedule. One row has no pair
	// to sample a distance from, and the bound is lossless under every
	// schedule, so a sampling design stores it under NDP-ET's.
	var sched bitplane.Schedule
	var prefix prefixelim.Config
	switch cfg.Design {
	case CPUBase, NDPBase:
	case NDPDimET:
		sched = bitplane.PlainSchedule(elem)
	case NDPBitET:
		sched = bitplane.UniformSchedule(elem, 0, 1)
	case NDPET, CPUET:
		sched = layout.SimpleHeuristicSchedule(elem)
	case NDPETDual, NDPETOpt, CPUETOpt:
		if rs.Len() < 2 {
			sched = layout.SimpleHeuristicSchedule(elem)
			break
		}
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
	default:
		return nil, fmt.Errorf("core: unknown design %v", cfg.Design)
	}

	// Storage. A Base design fetches the plain row.
	if cfg.Design.UsesET() {
		store, err := BuildStore(rs, sched, prefix)
		if err != nil {
			return nil, err
		}
		s.Store = store
	}
	s.PreprocessSeconds = time.Since(start).Seconds()
	return s, nil
}

// analyze runs the sampling pass over a seeded random subset.
func (s *System) analyze(cfg SystemConfig) (*layout.Analysis, error) {
	n := cfg.SampleSize
	if n <= 0 {
		n = 100
	}
	return layout.Analyze(layout.Sample(s.rows, n, cfg.Seed), s.Elem, s.Metric, cfg.LayoutOpts)
}

// SetTombstones records the deletion bitmap of the state the system was
// built over (nil on an immutable database): every engine NewWorkerEngine
// makes afterwards consults it on the scan paths, and Live hands its filter
// to whoever searches the index. Call it before the system is shared.
func (s *System) SetTombstones(t *TombSet) { s.tomb, s.live = t, t.Filter() }

// Live returns the tombstone filter a search over Index applies to its
// results (nil on an immutable database).
func (s *System) Live() func(uint32) bool { return s.live }

// Rows returns the slab the system was built over.
func (s *System) Rows() *rows.Slab { return s.rows }

// NewWorkerEngine is the one place an engine over this system is made —
// engines are not safe for concurrent use, so every searcher (each worker
// of a simulated run) needs one of its own. An ET design gets the store's engine with the tombstone set; a Base
// design gets the exact engine over the rows. What only the platform model
// adds (rank-local termination, adaptive precision) sim.Model sets on it.
func (s *System) NewWorkerEngine() engine.Engine {
	if s.Store == nil {
		return engine.NewExactOver(s.rows, s.Metric)
	}
	e := s.Store.NewETEngine(s.Metric)
	e.SetTombstones(s.tomb)
	return e
}
