// Package fault is the simulated platform's fault model: a seeded,
// deterministic fault injector for chaos testing the NDP path, and the
// resilient wrapper (bounded retry, per-rank circuit breakers, CPU-exact
// fallback) that absorbs what it injects. A declarative Schedule of Rules
// describes which faults to inject where — payloads the protocol CRC
// rejects, dropped or delayed poll responses, whole ranks crashed or stuck —
// and the injector applies them reproducibly: the same schedule over the
// same (sequential) run injects the same faults.
//
// Injection decisions are pure functions of (seed, rule, opportunity
// index), not of a shared random stream, so rules never perturb each
// other. Under concurrent searches the assignment of opportunity indexes
// to comparisons follows goroutine scheduling; sequential runs (the chaos
// harness default) are bit-reproducible.
//
// There is one interposition point: FallibleEngine wraps an engine.Engine
// as a Fallible, and sim.Model puts a Resilient on top. Every fault class
// manifests there as the comparison error the host would see, not as a
// modelled DDR payload.
package fault

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ansmet/internal/stats"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// CorruptPayload corrupts a 64 B command/response payload in transit;
	// the protocol CRC rejects it (transient).
	CorruptPayload Kind = iota
	// DropPoll makes a poll READ fail outright (transient).
	DropPoll
	// DelayPoll makes a poll READ return a valid but not-yet-complete
	// response (transient). At system level a poll that outlives the
	// host's budget reads as a drop.
	DelayPoll
	// RankCrash makes a rank permanently unreachable.
	RankCrash
	// RankStuck makes a rank accept instructions but never complete them.
	RankStuck
)

var kindNames = [...]string{
	"corrupt-payload", "drop-poll", "delay-poll", "rank-crash", "rank-stuck",
}

// String names the fault class.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Typed fault-manifestation errors, wrapped in RankError by FallibleEngine
// so circuit breakers can attribute them.
var (
	// ErrRankDown reports a crashed rank.
	ErrRankDown = errors.New("fault: rank crashed")
	// ErrRankStuck reports a rank that stopped completing work.
	ErrRankStuck = errors.New("fault: rank stuck")
	// ErrPollDropped reports a dropped poll response.
	ErrPollDropped = errors.New("fault: poll response dropped")
	// ErrPayloadCorrupt reports a payload the protocol CRC rejected.
	ErrPayloadCorrupt = errors.New("fault: payload corrupted in transit")
)

// Rule is one declarative entry of a fault schedule.
type Rule struct {
	// Kind selects the fault class.
	Kind Kind
	// Rank targets one rank; -1 targets every rank.
	Rank int
	// Prob is the injection probability per matching opportunity; values
	// <= 0 mean "always" (so the zero-value Rule of a Kind injects
	// unconditionally). Ignored by RankCrash/RankStuck, which are
	// permanent once past After.
	Prob float64
	// After skips the first After matching opportunities (for
	// RankCrash/RankStuck: the rank fails at the After-th health check).
	After int
	// Count bounds total injections of this rule; 0 means unlimited.
	// Ignored by RankCrash/RankStuck.
	Count int
}

// Schedule is a reproducible chaos scenario: a seed plus a rule list.
type Schedule struct {
	Seed  uint64
	Rules []Rule
}

// Injector applies a Schedule. All methods are safe for concurrent use and
// safe on a nil receiver (a nil *Injector injects nothing), so wrappers
// need no nil checks.
type Injector struct {
	seed  uint64
	rules []Rule
	opp   []atomic.Uint64 // opportunities seen per rule
	hits  []atomic.Uint64 // injections performed per rule
}

// NewInjector builds an injector for the schedule; a nil schedule yields a
// nil (inert) injector.
func NewInjector(s *Schedule) *Injector {
	if s == nil {
		return nil
	}
	return &Injector{
		seed:  s.Seed,
		rules: append([]Rule(nil), s.Rules...),
		opp:   make([]atomic.Uint64, len(s.Rules)),
		hits:  make([]atomic.Uint64, len(s.Rules)),
	}
}

// splitmix64 is the per-opportunity decision hash: one step of the
// splitmix64 generator from state x.
func splitmix64(x uint64) uint64 { return stats.Mix64(x + 0x9e3779b97f4a7c15) }

// rand01 derives a uniform [0,1) value for (rule, opportunity).
func (inj *Injector) rand01(rule int, n uint64) float64 {
	x := splitmix64(inj.seed ^ splitmix64(uint64(rule)+1) ^ splitmix64(n))
	return float64(x>>11) / (1 << 53)
}

// fire evaluates one opportunity against rule i; reports whether the rule
// injects, and claims a hit if so.
func (inj *Injector) fire(i int) bool {
	r := &inj.rules[i]
	n := inj.opp[i].Add(1) - 1
	if int(n) < r.After {
		return false
	}
	if r.Prob > 0 && r.Prob < 1 && inj.rand01(i, n) >= r.Prob {
		return false
	}
	if r.Count > 0 {
		if inj.hits[i].Add(1) > uint64(r.Count) {
			return false
		}
		return true
	}
	inj.hits[i].Add(1)
	return true
}

// matches reports whether rule i targets (kind, rank).
func (inj *Injector) matches(i int, kind Kind, rank int) bool {
	r := &inj.rules[i]
	return r.Kind == kind && (r.Rank < 0 || r.Rank == rank)
}

// trigger reports whether some rule targeting (kind, rank) fires at this
// opportunity.
func (inj *Injector) trigger(kind Kind, rank int) bool {
	if inj == nil {
		return false
	}
	for i := range inj.rules {
		if inj.matches(i, kind, rank) && inj.fire(i) {
			return true
		}
	}
	return false
}

// permanent reports whether a RankCrash/RankStuck rule holds for rank:
// true from the After-th health check onward, forever.
func (inj *Injector) permanent(kind Kind, rank int) bool {
	if inj == nil {
		return false
	}
	for i := range inj.rules {
		if !inj.matches(i, kind, rank) {
			continue
		}
		n := inj.opp[i].Add(1) - 1
		if int(n) >= inj.rules[i].After {
			inj.hits[i].Add(1)
			return true
		}
	}
	return false
}

// Crashed reports whether rank is (now) permanently unreachable.
func (inj *Injector) Crashed(rank int) bool { return inj.permanent(RankCrash, rank) }

// Stuck reports whether rank accepts work but never completes it.
func (inj *Injector) Stuck(rank int) bool { return inj.permanent(RankStuck, rank) }

// Transient checks the transient fault classes an engine-level comparison
// can hit (CorruptPayload, DropPoll, DelayPoll) in rule order and reports
// the first that fires.
func (inj *Injector) Transient(rank int) (Kind, bool) {
	for _, k := range [...]Kind{CorruptPayload, DropPoll, DelayPoll} {
		if inj.trigger(k, rank) {
			return k, true
		}
	}
	return 0, false
}

// RuleStats is one rule's opportunity/injection count.
type RuleStats struct {
	Rule          Rule
	Opportunities uint64
	Injections    uint64
}

// Stats snapshots per-rule injection counts.
func (inj *Injector) Stats() []RuleStats {
	if inj == nil {
		return nil
	}
	out := make([]RuleStats, len(inj.rules))
	for i := range inj.rules {
		hits := inj.hits[i].Load()
		if c := inj.rules[i].Count; c > 0 && hits > uint64(c) {
			hits = uint64(c) // over-claimed by exhausted Count checks
		}
		out[i] = RuleStats{Rule: inj.rules[i], Opportunities: inj.opp[i].Load(), Injections: hits}
	}
	return out
}

// TotalInjections sums injections across rules.
func (inj *Injector) TotalInjections() uint64 {
	var sum uint64
	for _, s := range inj.Stats() {
		sum += s.Injections
	}
	return sum
}
