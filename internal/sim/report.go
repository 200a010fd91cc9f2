package sim

import (
	"math"

	"ansmet/internal/dram"
	"ansmet/internal/energy"
	"ansmet/internal/stats"
)

// Report summarizes one replay.
type Report struct {
	// QueryLatencyNs holds per-query end-to-end latency.
	QueryLatencyNs []float64
	// MakespanNs is the completion time of the last query.
	MakespanNs float64

	// Latency breakdown sums across queries (Fig. 9 categories).
	TraversalNs float64 // host index traversal & sorting
	OffloadNs   float64 // set-query / set-search instruction time
	DistCompNs  float64 // distance comparison (fetch + compute)
	CollectNs   float64 // result polling delay

	// Fetch utilization (Fig. 10): 64 B lines of accepted vs rejected
	// comparisons (backup lines count toward their task's class).
	EffectualLines   uint64
	IneffectualLines uint64

	// Activity for the energy model.
	CoreBusyNs float64
	NDPBusyNs  float64
	Mem        dram.Stats

	// RankTaskLines counts fetched lines per rank (load imbalance, §5.3).
	RankTaskLines []uint64

	// PollCount is the number of poll READs issued.
	PollCount uint64

	// CoreWaitNs accumulates time queries spent waiting for a free host
	// core before their host phases (diagnostic).
	CoreWaitNs float64
}

// AvgLatencyNs returns the mean per-query latency.
func (r *Report) AvgLatencyNs() float64 { return stats.Mean(r.QueryLatencyNs) }

// QPS returns simulated queries per second.
func (r *Report) QPS() float64 {
	if r.MakespanNs == 0 {
		return 0
	}
	return float64(len(r.QueryLatencyNs)) / (r.MakespanNs * 1e-9)
}

// FetchUtilization returns effectual / total fetched lines (Fig. 10).
func (r *Report) FetchUtilization() float64 {
	total := r.EffectualLines + r.IneffectualLines
	if total == 0 {
		return math.NaN()
	}
	return float64(r.EffectualLines) / float64(total)
}

// ImbalanceRatio returns max/mean fetched lines across ranks (§5.3's
// "query amount ratio between the most loaded NDP unit and the average").
func (r *Report) ImbalanceRatio() float64 {
	if len(r.RankTaskLines) == 0 {
		return math.NaN()
	}
	var max, sum uint64
	for _, v := range r.RankTaskLines {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return math.NaN()
	}
	mean := float64(sum) / float64(len(r.RankTaskLines))
	return float64(max) / mean
}

// EnergyActivity converts the report into the energy model's input.
func (r *Report) EnergyActivity() energy.Activity {
	return energy.Activity{
		Activates:  r.Mem.Activates,
		HostBursts: r.Mem.HostBytes / 64,
		NDPBursts:  r.Mem.NDPBytes / 64,
		CoreBusyNs: r.CoreBusyNs,
		NDPBusyNs:  r.NDPBusyNs,
	}
}
