package ansmet

import "ansmet/internal/core"

// This file is the public face of adaptive mixed-precision search: the
// RecallTarget knob's runtime state and the per-query tiered option
// resolution of the tiered route.

// adaptive reports whether this database runs adaptive mixed-precision
// (Options.RecallTarget in (0, 1) on an ET design).
func (db *Database) adaptive() bool { return db.tuner != nil }

// tieredOpts resolves the tiered pipeline options for one query. An
// explicit in-range budget wins; otherwise the recall-target tuner's
// calibrated budget (when adaptive) or 1, the provably exact cut, applies.
// Adaptive databases additionally install the per-partition static depth
// map, the tuner's depth bias and the escalation margin.
func (db *Database) tieredOpts(budget float64) core.TieredOpts {
	if budget <= 0 || budget > 1 {
		budget = 1
		if db.tuner != nil {
			budget = db.tuner.Budget()
		}
	}
	opt := core.TieredOpts{Budget: budget}
	if db.tuner != nil {
		// The static map owns the per-vector depth, so the uniform cap
		// moves out of the way: -1 raises the escalation ceiling to the
		// never-fully-fetch maximum.
		opt.MaxBoundLines = -1
		opt.Precision = db.model.Load().Precision // adaptive: built in New
		opt.DepthBias = db.tuner.DepthBias()
		opt.EscalateMargin = db.tuner.Margin()
	}
	return opt
}

// observeTiered feeds one tiered query's outcome back into the
// recall-target calibration (no-op when the database is not adaptive or
// the query was cancelled mid-flight).
func (db *Database) observeTiered(k int, st TieredStats) {
	if db.tuner == nil || st.Cancelled {
		return
	}
	db.tuner.Observe(k, st.Pool, st.AtRisk)
}

// PrecisionStats reports the adaptive mixed-precision state: the static
// per-partition map's shape and the recall-target tuner's live
// calibration. Zero-valued (Enabled false) when Options.RecallTarget did
// not enable the machinery.
type PrecisionStats struct {
	Enabled bool
	// Target is the configured recall target; Budget, DepthBias and Margin
	// are the tuner's current calibration (see internal/precision).
	Target    float64
	Budget    float64
	DepthBias int
	Margin    float64
	// RiskEWMA and PoolPerK are the smoothed observations driving the
	// calibration; Observations counts tiered queries folded in.
	RiskEWMA     float64
	PoolPerK     float64
	Observations uint64
	// Clusters and MeanDepthLines describe the static map: partition count
	// and the population-mean minimum fetch depth in lines.
	Clusters       int
	MeanDepthLines float64
}

// PrecisionStats exposes the adaptive-precision calibration for monitoring
// (the serve layer publishes it under the "precision" debug-vars section).
func (db *Database) PrecisionStats() PrecisionStats {
	if db.tuner == nil {
		return PrecisionStats{}
	}
	snap := db.tuner.Snapshot()
	st := PrecisionStats{
		Enabled:      true,
		Target:       snap.Target,
		Budget:       snap.Budget,
		DepthBias:    snap.DepthBias,
		Margin:       snap.Margin,
		RiskEWMA:     snap.RiskEWMA,
		PoolPerK:     snap.PoolPerK,
		Observations: snap.Observations,
	}
	if sys := db.model.Load(); sys != nil && sys.Precision != nil {
		st.Clusters = sys.Precision.Clusters
		st.MeanDepthLines = sys.Precision.MeanLines()
	}
	return st
}
