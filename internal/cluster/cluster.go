// Package cluster implements the fault-tolerant scatter-gather coordinator
// of the sharded ANSMET serving path: it fans one query out across N
// shard searchers, carves each shard a deadline budget from the request
// deadline, hedges the slowest shard once a quantile-tracked latency
// threshold passes, skips shards whose circuit breaker is open (re-probing
// on a jittered exponential backoff), sheds per-shard overload, and merges
// the per-shard top-k streams into the global top-k.
//
// The coordinator is deliberately transport- and index-agnostic: a shard is
// just a ShardFunc. The root ansmet package wires per-shard Databases into
// it (in-process shards today, network shards tomorrow), and the tests wire
// deliberately broken ones.
//
// Degradation contract (DESIGN.md, "Cluster fault model and degradation
// semantics"): when every shard is healthy the merged result is
// byte-identical to the unsharded search over the same exhaustive beam;
// when shards are down, slow, or shedding, SearchInto still returns the best
// merged result it can, with Result.Partial set and a per-shard error
// taxonomy explaining exactly what was missing and why. A query only fails
// outright when not a single shard produced anything.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ansmet/internal/hnsw"
	"ansmet/internal/stats"
)

// ShardFunc executes one query against one shard, appending up to k
// results into dst[:0] and returning them sorted by the canonical
// (Dist, ID) order with GLOBAL vector ids (the shard does its own local→
// global remapping). Cancellation and deadline must propagate
// cooperatively (the ansmet SearchCtx family does); on context expiry a
// best-effort sorted prefix may be returned alongside an error matching
// context.DeadlineExceeded / context.Canceled via errors.Is.
type ShardFunc func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error)

// Shard-level sentinels of the error taxonomy, matched with errors.Is.
var (
	// ErrShardBreakerOpen marks a shard skipped because its breaker is open.
	ErrShardBreakerOpen = errors.New("cluster: shard breaker open")
	// ErrShardShed marks a shard skipped by its in-flight budget.
	ErrShardShed = errors.New("cluster: shard in-flight budget exhausted")
	// ErrAllShardsFailed reports a query no shard answered: nothing to
	// return, not even a partial result.
	ErrAllShardsFailed = errors.New("cluster: every shard failed")
)

// ErrKind classifies one shard's failure in Result.Errors.
type ErrKind int

const (
	// KindCrash is a shard error return (or panic) — the shard is sick.
	KindCrash ErrKind = iota + 1
	// KindTimeout is a shard that overran its carved deadline budget; its
	// best-effort partial prefix (if any) is still merged.
	KindTimeout
	// KindCanceled is a shard abandoned because the client went away; no
	// breaker verdict is recorded (the shard was never proven sick).
	KindCanceled
	// KindBreakerOpen is a shard skipped up front: breaker open.
	KindBreakerOpen
	// KindShed is a shard skipped up front: per-shard in-flight budget full.
	KindShed
)

var kindNames = [...]string{"", "crash", "timeout", "canceled", "breaker-open", "shed"}

// String names the kind.
func (k ErrKind) String() string {
	if k < 1 || int(k) >= len(kindNames) {
		return fmt.Sprintf("ErrKind(%d)", int(k))
	}
	return kindNames[k]
}

// ShardError attributes one degradation event to one shard.
type ShardError struct {
	Shard int
	Kind  ErrKind
	Err   error
}

// Error implements error.
func (e ShardError) Error() string { return fmt.Sprintf("shard %d %s: %v", e.Shard, e.Kind, e.Err) }

// Unwrap exposes the cause.
func (e ShardError) Unwrap() error { return e.Err }

// Result is one scatter-gather answer.
type Result struct {
	// Neighbors is the merged top-k (global ids, canonical order). With a
	// healthy cluster it is exactly what the unsharded search would return;
	// degraded, it is the best merge of what answered.
	Neighbors []hnsw.Neighbor
	// Partial reports that at least one shard did not contribute its full
	// answer (down, slow, skipped, or shed) — the serving layer surfaces
	// this as the X-ANSMET-Partial header and JSON field.
	Partial bool
	// Errors is the per-shard taxonomy of what went wrong; nil when healthy.
	Errors []ShardError
	// Hedged is how many hedge requests this query launched.
	Hedged int
}

// The hedging policy: a shard is hedged once it has been out for
// hedgeFactor × the hedgeQuantile of its recent latency window, never sooner
// than hedgeFloor, and a query launches at most maxHedgesPerQuery hedges — a
// hedge doubles a shard's load, so it is for the one straggler, not for a
// cluster that is slow everywhere. A shard with fewer than hedgeMinSamples
// responses is cold and not hedged: its latency estimate is not yet one.
const (
	hedgeQuantile     = 0.9
	hedgeFactor       = 3
	hedgeFloor        = time.Millisecond
	maxHedgesPerQuery = 1
	hedgeMinSamples   = 16
)

// The shard fan-out gets budgetFraction of the remaining request deadline,
// the rest being merge/transport slack, and at least minMergeReserve is held
// back from it.
const (
	budgetFraction  = 0.9
	minMergeReserve = 500 * time.Microsecond
)

// HedgeConfig tunes hedged requests to slow shards.
type HedgeConfig struct {
	// Disabled switches hedging off.
	Disabled bool
}

// Config wires a Coordinator.
type Config struct {
	// MaxInFlightPerShard caps concurrent queries (including hedges) per
	// shard; excess fan-outs to that shard are shed, degrading the result
	// to partial instead of queueing without bound. 0 = unlimited.
	MaxInFlightPerShard int

	Hedge   HedgeConfig
	Breaker BreakerConfig

	// now is the injectable clock for breaker tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Metrics are the coordinator's cumulative counters.
type Metrics struct {
	Queries      atomic.Uint64 // scatter-gather searches started
	ShardCalls   atomic.Uint64 // shard requests launched (primaries + hedges)
	Hedges       atomic.Uint64 // hedge requests launched
	HedgeWins    atomic.Uint64 // hedges that beat their primary
	Partials     atomic.Uint64 // queries answered with Partial set
	Timeouts     atomic.Uint64 // shard budget overruns
	Crashes      atomic.Uint64 // shard error returns / panics
	BreakerSkips atomic.Uint64 // shards skipped with an open breaker
	Sheds        atomic.Uint64 // shards skipped by the in-flight budget
	BreakerTrips atomic.Uint64 // shard breakers opened
	Probes       atomic.Uint64 // half-open probes admitted
	Reenables    atomic.Uint64 // breakers closed again by a probe
	AllFailed    atomic.Uint64 // queries no shard answered
}

// MetricsSnapshot is a plain-value copy of the coordinator counters.
type MetricsSnapshot struct {
	Queries      uint64
	ShardCalls   uint64
	Hedges       uint64
	HedgeWins    uint64
	Partials     uint64
	Timeouts     uint64
	Crashes      uint64
	BreakerSkips uint64
	Sheds        uint64
	BreakerTrips uint64
	Probes       uint64
	Reenables    uint64
	AllFailed    uint64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Queries:      m.Queries.Load(),
		ShardCalls:   m.ShardCalls.Load(),
		Hedges:       m.Hedges.Load(),
		HedgeWins:    m.HedgeWins.Load(),
		Partials:     m.Partials.Load(),
		Timeouts:     m.Timeouts.Load(),
		Crashes:      m.Crashes.Load(),
		BreakerSkips: m.BreakerSkips.Load(),
		Sheds:        m.Sheds.Load(),
		BreakerTrips: m.BreakerTrips.Load(),
		Probes:       m.Probes.Load(),
		Reenables:    m.Reenables.Load(),
		AllFailed:    m.AllFailed.Load(),
	}
}

// Coordinator is the scatter-gather fan-out/merge engine over a fixed
// shard set. Safe for concurrent use.
type Coordinator struct {
	shards   []ShardFunc
	cfg      Config
	breakers *stats.Breakers
	lat      []*latencyTracker
	slots    []chan struct{} // nil when MaxInFlightPerShard == 0
	metrics  Metrics

	statePool sync.Pool // *gatherState
}

// New builds a Coordinator over the shard searchers.
func New(shards []ShardFunc, cfg Config) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: no shards")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{shards: shards, cfg: cfg, breakers: newBreakers(cfg.Breaker, len(shards), cfg.now)}
	for range shards {
		c.lat = append(c.lat, newLatencyTracker(hedgeQuantile, hedgeMinSamples))
		var slot chan struct{}
		if cfg.MaxInFlightPerShard > 0 {
			slot = make(chan struct{}, cfg.MaxInFlightPerShard)
		}
		c.slots = append(c.slots, slot)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Metrics exposes the live counters.
func (c *Coordinator) Metrics() *Metrics { return &c.metrics }

// BreakerStates returns every shard breaker's position, indexed by shard.
func (c *Coordinator) BreakerStates() []stats.BreakerState { return c.breakers.States() }

// shardResp is one shard call's outcome.
type shardResp struct {
	shard int
	hedge bool
	nn    []hnsw.Neighbor
	err   error
	dur   time.Duration
}

// gatherState is the pooled per-query scratch of one scatter-gather. It is
// returned to the pool only when every launched shard call has delivered
// its response — a state with calls still in flight is abandoned to the
// garbage collector instead, so a straggler can never write into a buffer
// the next query is reading.
type gatherState struct {
	resp      chan shardResp
	lists     [][]hnsw.Neighbor
	priBuf    [][]hnsw.Neighbor // retained-capacity result buffers, primary calls
	hedBuf    [][]hnsw.Neighbor // same, hedge calls
	launched  []bool
	responded []bool
	hedged    []bool
	probe     []bool
	start     []time.Time
	hthresh   []time.Duration
	errs      []ShardError
	successes int
	timer     *time.Timer
}

func (c *Coordinator) getState() *gatherState {
	st, _ := c.statePool.Get().(*gatherState)
	n := len(c.shards)
	if st == nil {
		st = &gatherState{
			resp:      make(chan shardResp, 2*n),
			lists:     make([][]hnsw.Neighbor, n),
			priBuf:    make([][]hnsw.Neighbor, n),
			hedBuf:    make([][]hnsw.Neighbor, n),
			launched:  make([]bool, n),
			responded: make([]bool, n),
			hedged:    make([]bool, n),
			probe:     make([]bool, n),
			start:     make([]time.Time, n),
			hthresh:   make([]time.Duration, n),
		}
	} else {
		for i := 0; i < n; i++ {
			st.lists[i] = nil
			st.launched[i], st.responded[i], st.hedged[i], st.probe[i] = false, false, false, false
			st.hthresh[i] = 0
		}
		st.errs = st.errs[:0]
	}
	st.successes = 0
	return st
}

// stopTimer halts and drains a timer so it is safe to Reset or pool.
func stopTimer(t *time.Timer) {
	if t != nil && !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// SearchInto runs one scatter-gather query, merging the per-shard top-k
// into dst[:0]. See the package comment for the degradation contract. The
// error is non-nil only when the request context fired (matching the
// context sentinels via errors.Is, with any best-effort merge in the
// Result) or when not a single shard produced anything
// (ErrAllShardsFailed).
func (c *Coordinator) SearchInto(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) (Result, error) {
	c.metrics.Queries.Add(1)
	st := c.getState()

	// Carve the shard budget out of the request deadline, reserving merge
	// slack, so a slow shard exhausts its own budget — not the client's.
	fanCtx := ctx
	var cancel context.CancelFunc
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		budget := time.Duration(float64(rem) * budgetFraction)
		if rem-budget < minMergeReserve {
			budget = rem - minMergeReserve
		}
		if budget <= 0 {
			budget = rem / 2
		}
		fanCtx, cancel = context.WithDeadline(ctx, time.Now().Add(budget))
	} else {
		fanCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// Fan out.
	calls, outstanding := 0, 0
	for s := range c.shards {
		allowed, probe := c.breakers.Allow(s)
		if !allowed {
			st.errs = append(st.errs, ShardError{Shard: s, Kind: KindBreakerOpen, Err: ErrShardBreakerOpen})
			c.metrics.BreakerSkips.Add(1)
			continue
		}
		if !c.acquireSlot(s) {
			if probe {
				c.breakers.ReleaseProbe(s)
			}
			st.errs = append(st.errs, ShardError{Shard: s, Kind: KindShed, Err: ErrShardShed})
			c.metrics.Sheds.Add(1)
			continue
		}
		if probe {
			st.probe[s] = true
			c.metrics.Probes.Add(1)
		}
		st.launched[s] = true
		st.start[s] = time.Now()
		if !c.cfg.Hedge.Disabled && !probe {
			if ql, ok := c.lat[s].Quantile(); ok {
				st.hthresh[s] = max(ql*hedgeFactor, hedgeFloor)
			}
		}
		calls++
		outstanding++
		go c.callShard(fanCtx, s, false, q, k, ef, st.priBuf[s][:0], st)
	}
	c.metrics.ShardCalls.Add(uint64(outstanding))

	// Gather: collect first responses, hedging stragglers, until every
	// launched shard resolved or the request context fired.
	received := 0
	hedges := 0
	clientGone := false
	for outstanding > 0 {
		var timerC <-chan time.Time
		if hedges < maxHedgesPerQuery {
			if at, ok := c.nextHedgeAt(st); ok {
				d := time.Until(at)
				if d < 0 {
					d = 0
				}
				if st.timer == nil {
					st.timer = time.NewTimer(d)
				} else {
					stopTimer(st.timer)
					st.timer.Reset(d)
				}
				timerC = st.timer.C
			}
		}
		select {
		case r := <-st.resp:
			received++
			if st.responded[r.shard] {
				break // hedge race loser; result discarded
			}
			st.responded[r.shard] = true
			outstanding--
			c.classify(ctx, st, r)
		case <-timerC:
			now := time.Now()
			for s := range c.shards {
				if hedges >= maxHedgesPerQuery {
					break
				}
				if !hedgeEligible(st, s) || now.Before(st.start[s].Add(st.hthresh[s])) {
					continue
				}
				st.hedged[s] = true
				if !c.acquireSlot(s) {
					continue // no budget for a hedge; the primary keeps running
				}
				hedges++
				calls++
				c.metrics.Hedges.Add(1)
				c.metrics.ShardCalls.Add(1)
				go c.callShard(fanCtx, s, true, q, k, ef, st.hedBuf[s][:0], st)
			}
		case <-ctx.Done():
			// The request itself expired: abandon the stragglers (their
			// cooperative cancellation is already firing through fanCtx)
			// and answer with whatever has arrived.
			clientGone = true
			for s := range c.shards {
				if st.launched[s] && !st.responded[s] {
					if st.probe[s] {
						c.breakers.ReleaseProbe(s)
					}
					st.errs = append(st.errs, ShardError{Shard: s, Kind: KindCanceled, Err: ctx.Err()})
				}
			}
			outstanding = 0
		}
	}
	stopTimer(st.timer)

	// Merge the winner lists.
	merged := hnsw.MergeTopK(dst, st.lists, k)
	res := Result{Neighbors: merged, Partial: len(st.errs) > 0, Hedged: hedges}
	if len(st.errs) > 0 {
		res.Errors = append([]ShardError(nil), st.errs...)
		c.metrics.Partials.Add(1)
	}

	succeeded := st.successes > 0

	// Pool the state only when no call is still writing into its buffers.
	if received == calls {
		c.statePool.Put(st)
	}

	if clientGone {
		return res, ctx.Err()
	}
	if !succeeded && len(merged) == 0 {
		c.metrics.AllFailed.Add(1)
		return res, fmt.Errorf("%w (%d shards)", ErrAllShardsFailed, len(c.shards))
	}
	return res, nil
}

// hedgeEligible reports whether shard s can still be hedged: launched,
// unresolved, not yet hedged, not a probe, with a warm latency estimate.
func hedgeEligible(st *gatherState, s int) bool {
	return st.launched[s] && !st.responded[s] && !st.hedged[s] && st.hthresh[s] > 0
}

// nextHedgeAt returns the earliest pending hedge deadline.
func (c *Coordinator) nextHedgeAt(st *gatherState) (time.Time, bool) {
	var at time.Time
	found := false
	for s := range c.shards {
		if !hedgeEligible(st, s) {
			continue
		}
		t := st.start[s].Add(st.hthresh[s])
		if !found || t.Before(at) {
			at, found = t, true
		}
	}
	return at, found
}

// classify folds one first-response into breaker state, latency tracking,
// the winner list, and the error taxonomy.
func (c *Coordinator) classify(ctx context.Context, st *gatherState, r shardResp) {
	s := r.shard
	switch {
	case r.err == nil:
		st.lists[s] = r.nn
		st.successes++
		c.lat[s].Observe(r.dur)
		if c.breakers.Success(s) {
			c.metrics.Reenables.Add(1)
		}
		if r.hedge {
			c.metrics.HedgeWins.Add(1)
		}
	case errors.Is(r.err, context.Canceled) && ctx.Err() != nil:
		// The client went away; the shard was never proven sick.
		if st.probe[s] {
			c.breakers.ReleaseProbe(s)
		}
		st.errs = append(st.errs, ShardError{Shard: s, Kind: KindCanceled, Err: r.err})
	case errors.Is(r.err, context.DeadlineExceeded) || errors.Is(r.err, context.Canceled):
		// The shard overran its carved budget. Its best-effort prefix is
		// still worth merging; the breaker records a failure so a
		// persistently slow shard eventually opens.
		st.lists[s] = r.nn
		st.errs = append(st.errs, ShardError{Shard: s, Kind: KindTimeout, Err: r.err})
		c.metrics.Timeouts.Add(1)
		if c.breakers.Failure(s) {
			c.metrics.BreakerTrips.Add(1)
		}
	default:
		st.errs = append(st.errs, ShardError{Shard: s, Kind: KindCrash, Err: r.err})
		c.metrics.Crashes.Add(1)
		if c.breakers.Failure(s) {
			c.metrics.BreakerTrips.Add(1)
		}
	}
}

// callShard runs one shard call and delivers its response. The response
// channel is buffered for every call this query can launch, so the send
// never blocks and an abandoned call's goroutine always exits.
func (c *Coordinator) callShard(ctx context.Context, s int, hedge bool, q []float32, k, ef int, dst []hnsw.Neighbor, st *gatherState) {
	start := time.Now()
	defer c.releaseSlot(s)
	defer func() {
		if p := recover(); p != nil {
			st.resp <- shardResp{shard: s, hedge: hedge,
				err: fmt.Errorf("cluster: shard %d panicked: %v", s, p), dur: time.Since(start)}
		}
	}()
	nn, err := c.shards[s](ctx, q, k, ef, dst)
	// Retain buffer growth for the next query through this slot.
	if nn != nil {
		if hedge {
			st.hedBuf[s] = nn
		} else {
			st.priBuf[s] = nn
		}
	}
	st.resp <- shardResp{shard: s, hedge: hedge, nn: nn, err: err, dur: time.Since(start)}
}

// acquireSlot claims a per-shard in-flight slot (always true when
// unlimited).
func (c *Coordinator) acquireSlot(s int) bool {
	if c.slots[s] == nil {
		return true
	}
	select {
	case c.slots[s] <- struct{}{}:
		return true
	default:
		return false
	}
}

func (c *Coordinator) releaseSlot(s int) {
	if c.slots[s] != nil {
		<-c.slots[s]
	}
}
