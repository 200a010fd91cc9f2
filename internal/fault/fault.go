// Package fault is the simulated platform's fault model: a seeded,
// deterministic fault injector for chaos testing the NDP path, and the
// resilient wrapper (bounded retry, per-rank circuit breakers, CPU-exact
// fallback) that absorbs what it injects. A declarative Schedule of Rules
// describes which faults to inject where — corrupt 64 B payloads in transit,
// dropped or delayed poll responses, flipped bits in stored bit-plane lines,
// whole ranks crashed or stuck — and the injector applies them
// reproducibly: the same schedule over the same (sequential) run injects the
// same faults.
//
// Injection decisions are pure functions of (seed, rule, opportunity
// index), not of a shared random stream, so rules never perturb each
// other. Under concurrent searches the assignment of opportunity indexes
// to comparisons follows goroutine scheduling; sequential runs (the chaos
// harness default) are bit-reproducible.
//
// The package provides three interposition points: FaultyDevice wraps an
// ndp.Device (protocol-level faults), FaultyRank wraps an ndp.RankData
// (storage-level faults), and FallibleEngine wraps an engine.Engine
// (system-level faults under sim.Model's resilient wrap).
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
	// CorruptPayload flips bits in a 64 B command/response payload in
	// transit (detected by the protocol CRC; transient).
	CorruptPayload Kind = iota
	// DropPoll makes a poll READ fail outright (transient).
	DropPoll
	// DelayPoll makes a poll READ return a valid but not-yet-complete
	// response (transient; consumes the host's poll budget).
	DelayPoll
	// CorruptLine flips bits in a stored bit-plane line as the unit
	// fetches it (silent data corruption unless an invariant trips).
	CorruptLine
	// RankCrash makes a rank permanently unreachable.
	RankCrash
	// RankStuck makes a rank accept instructions but never complete them.
	RankStuck
)

var kindNames = [...]string{
	"corrupt-payload", "drop-poll", "delay-poll",
	"corrupt-line", "rank-crash", "rank-stuck",
}

// String names the fault class.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Typed fault-manifestation errors, wrapped in engine.RankError by the
// interposition layers so circuit breakers can attribute them.
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
	// Op filters CorruptPayload rules to one opcode (int(ndp.Opcode));
	// -1 corrupts any payload type.
	Op int
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
	// Bits is the number of bit flips per corruption (default 1).
	Bits int
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
func (inj *Injector) fire(i, rank int) bool {
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

// matches reports whether rule i targets (kind, rank, op).
func (inj *Injector) matches(i int, kind Kind, rank, op int) bool {
	r := &inj.rules[i]
	if r.Kind != kind {
		return false
	}
	if r.Rank >= 0 && r.Rank != rank {
		return false
	}
	if kind == CorruptPayload && r.Op >= 0 && r.Op != op {
		return false
	}
	return true
}

// trigger scans rules for a firing (kind, rank, op) opportunity and
// returns the firing rule's index.
func (inj *Injector) trigger(kind Kind, rank, op int) (int, bool) {
	if inj == nil {
		return 0, false
	}
	for i := range inj.rules {
		if inj.matches(i, kind, rank, op) && inj.fire(i, rank) {
			return i, true
		}
	}
	return 0, false
}

// permanent reports whether a RankCrash/RankStuck rule holds for rank:
// true from the After-th health check onward, forever.
func (inj *Injector) permanent(kind Kind, rank int) bool {
	if inj == nil {
		return false
	}
	for i := range inj.rules {
		if !inj.matches(i, kind, rank, -1) {
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

// DropPoll reports whether this poll READ is dropped.
func (inj *Injector) DropPoll(rank int) bool {
	_, ok := inj.trigger(DropPoll, rank, -1)
	return ok
}

// DelayPoll reports whether this poll READ returns a pending response.
func (inj *Injector) DelayPoll(rank int) bool {
	_, ok := inj.trigger(DelayPoll, rank, -1)
	return ok
}

// flipBits XORs `bits` deterministically chosen bit positions of p.
func flipBits(p []byte, bits int, h uint64) {
	if bits < 1 {
		bits = 1
	}
	for i := 0; i < bits; i++ {
		h = splitmix64(h)
		pos := int(h % uint64(len(p)*8))
		p[pos/8] ^= 1 << uint(pos%8)
	}
}

// Payload possibly corrupts a 64 B payload of the given opcode in transit,
// returning the (copied) corrupted payload and whether corruption fired.
func (inj *Injector) Payload(rank, op int, p [64]byte) ([64]byte, bool) {
	i, ok := inj.trigger(CorruptPayload, rank, op)
	if !ok {
		return p, false
	}
	h := splitmix64(inj.seed ^ splitmix64(uint64(i)) ^ inj.hits[i].Load())
	flipBits(p[:], inj.rules[i].Bits, h)
	return p, true
}

// Line possibly corrupts a stored bit-plane line view, returning a flipped
// copy (the backing store is never modified) and whether corruption fired.
func (inj *Injector) Line(rank int, data []byte) ([]byte, bool) {
	if len(data) == 0 {
		return data, false
	}
	i, ok := inj.trigger(CorruptLine, rank, -1)
	if !ok {
		return data, false
	}
	out := append([]byte(nil), data...)
	h := splitmix64(inj.seed ^ splitmix64(uint64(i)+7) ^ inj.hits[i].Load())
	flipBits(out, inj.rules[i].Bits, h)
	return out, true
}

// Transient checks the transient fault classes an engine-level comparison
// can hit (CorruptPayload, DropPoll, DelayPoll) in rule order and reports
// the first that fires.
func (inj *Injector) Transient(rank int) (Kind, bool) {
	for _, k := range [...]Kind{CorruptPayload, DropPoll, DelayPoll} {
		if _, ok := inj.trigger(k, rank, -1); ok {
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
