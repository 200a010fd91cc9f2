package fault

import (
	"fmt"

	"ansmet/internal/engine"
	"ansmet/internal/vecmath"
)

// Fallible is a distance engine whose comparisons can fail: a hardware
// path where payloads are CRC-rejected, ranks crash, or units wedge.
// Implementations follow the same one-query-at-a-time discipline as
// engine.Engine.
type Fallible interface {
	StartQuery(q []float32)
	// TryCompare is engine.Engine's Compare with an error path. Errors are
	// per-comparison: the engine must remain usable afterwards.
	TryCompare(id uint32, threshold float64) (engine.Result, error)
	LinesPerVector() int
	Metric() vecmath.Metric
}

// RankError attributes a comparison failure to one NDP rank, so the
// circuit breakers can degrade exactly the failing hardware. Producers
// wrap their cause; errors.As recovers it through wrapping.
type RankError struct {
	Rank int
	Err  error
}

// Error implements error.
func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

// Unwrap exposes the cause.
func (e *RankError) Unwrap() error { return e.Err }

// FallibleEngine adapts the software-model engine into a Fallible whose
// comparisons can fail according to the fault schedule. It is the
// package's one interposition point: sim.Model wraps every worker engine in
// one of these (plus a Resilient on top) when a fault schedule is
// configured, so whole query batches exercise the retry/fallback path
// without modelling every DDR payload.
//
// RankCrash and RankStuck manifest as persistent RankError failures
// for every comparison served by the rank; CorruptPayload, DropPoll and
// DelayPoll manifest as transient RankErrors that a retry can clear.
type FallibleEngine struct {
	inner   engine.Engine
	inj     *Injector
	ranksOf func(id uint32, dst []int) []int
	scratch []int
}

// WrapEngine interposes inj on inner. ranksOf maps a vector id to the
// ranks serving its comparison (reusing dst).
func WrapEngine(inner engine.Engine, inj *Injector, ranksOf func(id uint32, dst []int) []int) *FallibleEngine {
	return &FallibleEngine{inner: inner, inj: inj, ranksOf: ranksOf}
}

var _ Fallible = (*FallibleEngine)(nil)

// StartQuery implements Fallible.
func (f *FallibleEngine) StartQuery(q []float32) { f.inner.StartQuery(q) }

// TryCompare implements Fallible: each serving rank is health
// checked, then given a chance to inject a transient fault, before the
// comparison is delegated to the real engine.
func (f *FallibleEngine) TryCompare(id uint32, threshold float64) (engine.Result, error) {
	f.scratch = f.ranksOf(id, f.scratch[:0])
	for _, rank := range f.scratch {
		if f.inj.Crashed(rank) {
			return engine.Result{}, &RankError{Rank: rank, Err: ErrRankDown}
		}
		if f.inj.Stuck(rank) {
			return engine.Result{}, &RankError{Rank: rank, Err: ErrRankStuck}
		}
		if kind, ok := f.inj.Transient(rank); ok {
			err := ErrPayloadCorrupt
			if kind != CorruptPayload {
				err = ErrPollDropped // a delayed poll past budget reads as a drop
			}
			return engine.Result{}, &RankError{Rank: rank, Err: err}
		}
	}
	return f.inner.Compare(id, threshold), nil
}

// LinesPerVector implements Fallible.
func (f *FallibleEngine) LinesPerVector() int { return f.inner.LinesPerVector() }

// Metric implements Fallible.
func (f *FallibleEngine) Metric() vecmath.Metric { return f.inner.Metric() }
