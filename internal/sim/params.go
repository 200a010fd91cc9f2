// Package sim is the timing phase of the ANSMET co-simulation: it replays
// functional query traces (internal/trace) against the resource models —
// host cores, the DDR5 memory system (internal/dram), DIMM-side NDP units,
// partitioning (internal/partition) and result polling (internal/polling) —
// producing latency, throughput, traffic-utilization and energy-activity
// reports for every evaluated design.
//
// The simulator is deterministic and reservation-based: each resource
// (core, NDP unit, bank, bus) tracks its busy-until time, and queries are
// admitted with a bounded in-flight window so host phases of one query
// overlap NDP phases of others — the overlap that lets a CPU+NDP system
// outrun the host's own bandwidth wall. See DESIGN.md for the methodology
// discussion. Model puts the platform around a functional view (core.System)
// — it lays the view's vectors out over the ranks (Config holds the
// placement) — and runs query batches through it.
package sim

import (
	"ansmet/internal/dram"
	"ansmet/internal/partition"
	"ansmet/internal/polling"
)

// HostParams models the 16-core out-of-order host of Table 1.
type HostParams struct {
	// Cores is the host core count (paper: 16).
	Cores int
	// OpNs is the cost of one abstract traversal op (heap push/pop,
	// visited-set update) from trace.Hop.HostOps.
	OpNs float64
	// TaskFixedNs is the per-comparison fixed host cost when the host
	// itself computes distances (CPU designs).
	TaskFixedNs float64
	// GroupCheckNs is the serial bound-check cost between fetch groups in
	// CPU early-termination designs (the decision point that breaks memory
	// pipelining).
	GroupCheckNs float64
	// AggOpNs is the per-segment partial-result aggregation cost when
	// vectors are split across ranks (vertical/hybrid partitioning).
	AggOpNs float64
	// MLP bounds the outstanding line fetches per core (MSHR capacity plus
	// software prefetch depth under dependent traversal).
	MLP int
}

// NDPParams models one DIMM-side NDP unit (Fig. 5(c,d), Table 1).
type NDPParams struct {
	// ComputePerLineNs is the serial latency of updating the bound and
	// deciding early termination after each fetched line (16-wide unit at
	// 1.2 GHz: about one cycle per 16 elements plus the compare).
	ComputePerLineNs float64
	// TaskFixedNs covers QSHR bookkeeping per comparison task.
	TaskFixedNs float64
	// TasksPerSetSearch is how many comparison tasks one 64 B set-search
	// WRITE carries (Fig. 5(e): 8).
	TasksPerSetSearch int
	// QSHRs bounds concurrently resident queries per unit (Table 1: 32).
	QSHRs int
}

// DefaultHost returns calibrated host parameters.
func DefaultHost() HostParams {
	return HostParams{
		Cores:        16,
		OpNs:         1.0,
		TaskFixedNs:  4,
		GroupCheckNs: 2,
		AggOpNs:      2,
		MLP:          6,
	}
}

// DefaultNDP returns calibrated NDP-unit parameters.
func DefaultNDP() NDPParams {
	return NDPParams{
		ComputePerLineNs:  1.0, // ~1 cycle at 1.2 GHz plus compare
		TaskFixedNs:       4,
		TasksPerSetSearch: 8,
		QSHRs:             32,
	}
}

// Config is one design point of the platform: its placement, its recall
// target and what the replay (Run) reads. NewModel derives UseNDP, Part,
// GroupLines, QueryLines and Est; a replay driven by hand sets them.
type Config struct {
	// Mem is the DRAM topology/timing, the geometry the partition map lays
	// vectors out over.
	Mem dram.Config
	// Scheme and SubVectorBytes control rank partitioning (§5.3); the
	// paper's default is hybrid with S = 1 kB.
	Scheme         partition.Scheme
	SubVectorBytes int
	// ReplicateTopLayers replicates the vectors of the top N HNSW layers
	// to every rank group (0 disables).
	ReplicateTopLayers int
	// RecallTarget, when in (0, 1), enables adaptive mixed-precision search
	// for the ET designs: a per-partition minimum plane depth from cluster
	// radius statistics (Model.Precision, seeded with the view's Seed), and
	// escalation only where the top-k margin is tight. 0 and 1 keep the
	// fixed depth.
	RecallTarget float64

	// UseNDP selects NDP offload versus host-side distance computation.
	UseNDP bool
	Host   HostParams
	NDP    NDPParams

	// Part places primary (transformed) vector data across ranks.
	Part *partition.Map

	// GroupLines is the per-fetch-group line count of the layout schedule;
	// CPU designs pipeline fetches within a group and serialize between
	// groups (the ET decision points).
	GroupLines []int
	// QueryLines is the number of 64 B set-query WRITEs needed to install
	// one query vector in a QSHR.
	QueryLines int

	// Poll is the result-retrieval policy (NDP designs).
	Poll polling.Policy
	// Est predicts per-task service for adaptive polling.
	Est polling.TaskEstimator

	// InFlightFactor bounds concurrent queries to Cores×factor in NDP mode
	// (host phases of different queries interleave on cores); CPU mode
	// always uses exactly Cores. A negative value runs queries one at a
	// time (isolated per-query latency, as in the paper's Fig. 9).
	InFlightFactor int
}

// DefaultConfig returns the paper's platform (Table 1): hybrid partitioning
// at S = 1 kB, the top four HNSW layers replicated and, for every design,
// fixed 100 ns polling (the adaptive policy of §5.4 is evaluated in Fig. 9;
// at saturation the replayer's pacing under it is noisy, EXPERIMENTS.md).
func DefaultConfig() Config {
	return Config{
		Mem:                dram.DefaultConfig(),
		Scheme:             partition.Hybrid,
		SubVectorBytes:     1024,
		ReplicateTopLayers: 4,
		Host:               DefaultHost(),
		NDP:                DefaultNDP(),
		Poll:               polling.Conventional{IntervalNs: 100},
	}
}

// backupRowOffset displaces backup (full-precision) rows from primary data
// within the same rank; backup fetches go to the task's rank.
const backupRowOffset = 1 << 20

// maxInFlight returns the admission window. In NDP mode the host only
// touches each query briefly per hop, so many more queries than cores can
// be in flight; QSHRs are allocated per hop and freed after polling (§5.2,
// "the host program's responsibility to allocate/free"), so they do not
// bound resident queries globally.
func (c Config) maxInFlight() int {
	if c.InFlightFactor < 0 {
		return 1
	}
	if !c.UseNDP {
		return c.Host.Cores
	}
	f := c.InFlightFactor
	if f == 0 {
		f = 4
	}
	return c.Host.Cores * f
}
