// Package polling models how the host CPU retrieves distance-comparison
// results from the NDP units (paper §5.4). The host cannot be interrupted
// by a DIMM, so it polls each queried NDP unit with DDR READs. The
// conventional policy polls at a fixed interval from offload; ANSMET's
// adaptive policy estimates each batch's completion time from the
// sampling-derived distribution of per-task fetch counts and aims the first
// poll there, cutting both wasted polls and retrieval delay.
package polling

import "math"

// Policy decides poll times for one offloaded batch.
type Policy interface {
	// Plan returns the poll times of a batch offloaded at time t0 with the
	// given per-task expected service model.
	Plan(t0 float64, est BatchEstimate) Plan
	// Name identifies the policy in reports.
	Name() string
}

// BatchEstimate summarizes what the host knows about a batch when it
// offloads it: how many tasks went to the unit and the expected service
// time of each (from the preprocessing line distribution).
type BatchEstimate struct {
	Tasks        int
	MeanTaskNs   float64
	P90TaskNs    float64
	QueueAheadNs float64 // estimated backlog on the unit at offload
}

// Plan is a poll-time sequence in value form: At(i) returns the time of
// the i-th poll (i >= 0), strictly increasing. A plain value, so the
// simulator's replay loop can obtain a schedule per (unit, hop) without an
// allocation.
type Plan struct {
	linear bool
	t0, iv float64 // linear: poll i at t0 + (i+1)*iv

	first, retry, fineUntil, maxRetry float64 // backoff (Adaptive)
}

// At returns the time of the i-th poll.
func (p Plan) At(i int) float64 {
	if p.linear {
		return p.t0 + float64(i+1)*p.iv
	}
	t := p.first
	step := p.retry
	for j := 0; j < i; j++ {
		t += step
		if t > p.fineUntil {
			step *= 2
			if step > p.maxRetry {
				step = p.maxRetry
			}
		}
	}
	return t
}

// RetrieveAt returns the first poll time that observes a result completed
// at done, plus the number of polls issued up to and including it. Poll
// costs (bus occupancy) are charged by the caller per poll.
func (p Plan) RetrieveAt(done float64, maxPolls int) (at float64, polls int) {
	for i := 0; i < maxPolls; i++ {
		t := p.At(i)
		if t >= done {
			return t, i + 1
		}
	}
	return p.At(maxPolls - 1), maxPolls
}

// Conventional polls every IntervalNs after the offload (the paper's
// baseline uses a fixed 100 ns interval, Fig. 9).
type Conventional struct {
	IntervalNs float64
}

// Name implements Policy.
func (c Conventional) Name() string { return "conventional" }

// Plan implements Policy.
func (c Conventional) Plan(t0 float64, _ BatchEstimate) Plan {
	iv := c.IntervalNs
	if iv <= 0 {
		iv = 100
	}
	return Plan{linear: true, t0: t0, iv: iv}
}

// Adaptive aims the first poll at the estimated batch completion time —
// the sum of per-task expected latencies plus the unit's backlog, i.e. the
// addition of the task distributions the paper describes — then retries
// with exponential backoff so a poor estimate (e.g. under heavy cross-query
// contention) degrades gracefully toward fixed-interval behaviour instead
// of spamming the bus.
type Adaptive struct {
	// RetryNs is the first retry interval after the estimate (default
	// 25 ns); subsequent retries double up to MaxRetryNs.
	RetryNs float64
	// MaxRetryNs caps the backoff (default 200 ns).
	MaxRetryNs float64
	// Safety scales the estimate (default 1.0).
	Safety float64
}

// Name implements Policy.
func (a Adaptive) Name() string { return "adaptive" }

// Plan implements Policy. The first poll aims slightly below the
// estimated completion (estimates carry error in both directions; polling a
// touch early costs one cheap retry, polling late costs real latency), then
// retries at a fine, estimate-proportional pitch that doubles once past the
// expected window.
func (a Adaptive) Plan(t0 float64, est BatchEstimate) Plan {
	safety := a.Safety
	if safety <= 0 {
		safety = 0.95
	}
	maxRetry := a.MaxRetryNs
	if maxRetry <= 0 {
		maxRetry = 100
	}
	expect := math.Max(est.QueueAheadNs+float64(est.Tasks)*est.MeanTaskNs, 1)
	retry := a.RetryNs
	if retry <= 0 {
		retry = math.Max(10, 0.1*expect)
	}
	return Plan{
		first:     t0 + expect*safety,
		retry:     retry,
		fineUntil: t0 + expect*2,
		maxRetry:  maxRetry,
	}
}

// TaskEstimator converts a fetched-lines distribution (from
// layout.Analysis.LineDistribution) into per-task service-time moments
// given the per-line fetch cost of the target unit.
type TaskEstimator struct {
	MeanLines float64
	P90Lines  float64
}

// NewTaskEstimator computes distribution moments. dist[i] is the
// probability of fetching exactly i+1 lines.
func NewTaskEstimator(dist []float64) TaskEstimator {
	mean, cum, p90 := 0.0, 0.0, 0.0
	for i, p := range dist {
		mean += float64(i+1) * p
		cum += p
		if p90 == 0 && cum >= 0.9 {
			p90 = float64(i + 1)
		}
	}
	if p90 == 0 {
		p90 = float64(len(dist))
	}
	return TaskEstimator{MeanLines: mean, P90Lines: p90}
}

// Estimate builds a BatchEstimate for a batch of n tasks with the given
// per-line service cost, per-task fixed cost, and unit backlog.
func (e TaskEstimator) Estimate(n int, perLineNs, taskFixedNs, backlogNs float64) BatchEstimate {
	return BatchEstimate{
		Tasks:        n,
		MeanTaskNs:   e.MeanLines*perLineNs + taskFixedNs,
		P90TaskNs:    e.P90Lines*perLineNs + taskFixedNs,
		QueueAheadNs: backlogNs,
	}
}
