package fault

import (
	"ansmet/internal/engine"
	"ansmet/internal/vecmath"
)

// FallibleEngine adapts the software-model engine into an engine.Fallible
// whose comparisons can fail according to the fault schedule. It is the
// system-level interposition point: sim.Model wraps every worker engine in
// one of these (plus a Resilient on top) when a fault schedule is
// configured, so whole query batches exercise the retry/fallback path
// without modelling every DDR payload.
//
// RankCrash and RankStuck manifest as persistent engine.RankError failures
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

var _ engine.Fallible = (*FallibleEngine)(nil)

// StartQuery implements engine.Fallible.
func (f *FallibleEngine) StartQuery(q []float32) { f.inner.StartQuery(q) }

// TryCompare implements engine.Fallible: each serving rank is health
// checked, then given a chance to inject a transient fault, before the
// comparison is delegated to the real engine.
func (f *FallibleEngine) TryCompare(id uint32, threshold float64) (engine.Result, error) {
	f.scratch = f.ranksOf(id, f.scratch[:0])
	for _, rank := range f.scratch {
		if f.inj.Crashed(rank) {
			return engine.Result{}, &engine.RankError{Rank: rank, Err: ErrRankDown}
		}
		if f.inj.Stuck(rank) {
			return engine.Result{}, &engine.RankError{Rank: rank, Err: ErrRankStuck}
		}
		if kind, ok := f.inj.Transient(rank); ok {
			err := ErrPayloadCorrupt
			switch kind {
			case DropPoll:
				err = ErrPollDropped
			case DelayPoll:
				err = ErrPollDropped // a delayed poll past budget reads as a drop
			}
			return engine.Result{}, &engine.RankError{Rank: rank, Err: err}
		}
	}
	return f.inner.Compare(id, threshold), nil
}

// LinesPerVector implements engine.Fallible.
func (f *FallibleEngine) LinesPerVector() int { return f.inner.LinesPerVector() }

// Metric implements engine.Fallible.
func (f *FallibleEngine) Metric() vecmath.Metric { return f.inner.Metric() }
