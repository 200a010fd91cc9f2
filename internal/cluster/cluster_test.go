package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ansmet/internal/hnsw"
	"ansmet/internal/leakcheck"
	"ansmet/internal/stats"
)

// staticShard serves a fixed pre-sorted result list.
func staticShard(list []hnsw.Neighbor) ShardFunc {
	return func(_ context.Context, _ []float32, k, _ int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		n := len(list)
		if n > k {
			n = k
		}
		return append(dst, list[:n]...), nil
	}
}

// crashShard always errors.
func crashShard(msg string) ShardFunc {
	return func(context.Context, []float32, int, int, []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		return nil, errors.New(msg)
	}
}

// slowShard serves list after d, honoring cancellation: on context expiry
// it returns a best-effort prefix with the context error, like SearchCtx.
func slowShard(list []hnsw.Neighbor, d time.Duration) ShardFunc {
	inner := staticShard(list)
	return func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		select {
		case <-time.After(d):
			return inner(ctx, q, k, ef, dst)
		case <-ctx.Done():
			n := len(list)
			if n > 1 {
				n = 1 // the partial prefix found "so far"
			}
			return append(dst, list[:n]...), ctx.Err()
		}
	}
}

func fourLists() [][]hnsw.Neighbor {
	return [][]hnsw.Neighbor{
		{{ID: 0, Dist: 0.1}, {ID: 4, Dist: 0.5}, {ID: 8, Dist: 0.9}},
		{{ID: 1, Dist: 0.2}, {ID: 5, Dist: 0.5}, {ID: 9, Dist: 1.0}},
		{{ID: 2, Dist: 0.3}, {ID: 6, Dist: 0.7}},
		{{ID: 3, Dist: 0.4}, {ID: 7, Dist: 0.8}},
	}
}

func TestHealthyMergeMatchesReference(t *testing.T) {
	lists := fourLists()
	var shards []ShardFunc
	for _, l := range lists {
		shards = append(shards, staticShard(l))
	}
	c, err := New(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 5, 10, 100} {
		res, err := c.SearchInto(context.Background(), nil, k, 32, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Partial || len(res.Errors) != 0 {
			t.Fatalf("k=%d: healthy query marked partial: %+v", k, res)
		}
		want := hnsw.MergeTopK(nil, lists, k)
		if !reflect.DeepEqual(res.Neighbors, want) {
			t.Fatalf("k=%d: merged = %v, want %v", k, res.Neighbors, want)
		}
	}
	m := c.Metrics().Snapshot()
	if m.Queries != 5 || m.ShardCalls != 20 || m.Partials != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestCrashedShardDegradesAndBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	lists := fourLists()
	healthy := int32(0)
	flaky := func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		if atomic.LoadInt32(&healthy) == 0 {
			return nil, errors.New("shard down")
		}
		return staticShard(lists[1])(ctx, q, k, ef, dst)
	}
	shards := []ShardFunc{staticShard(lists[0]), flaky, staticShard(lists[2]), staticShard(lists[3])}
	cfg := Config{now: clock}
	c, err := New(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantDegraded := hnsw.MergeTopK(nil, [][]hnsw.Neighbor{lists[0], lists[2], lists[3]}, 5)
	query := func(wantKind ErrKind) Result {
		t.Helper()
		res, err := c.SearchInto(context.Background(), nil, 5, 32, nil)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		if !res.Partial || len(res.Errors) != 1 {
			t.Fatalf("want one degradation, got %+v", res)
		}
		if e := res.Errors[0]; e.Shard != 1 || e.Kind != wantKind {
			t.Fatalf("error = %+v, want shard 1 kind %v", e, wantKind)
		}
		if !reflect.DeepEqual(res.Neighbors, wantDegraded) {
			t.Fatalf("degraded merge = %v, want %v", res.Neighbors, wantDegraded)
		}
		return res
	}

	// failureThreshold (3) crashes trip the breaker...
	for i := 0; i < failureThreshold; i++ {
		query(KindCrash)
	}
	if got := c.BreakerStates()[1]; got != stats.BreakerOpen {
		t.Fatalf("breaker after threshold crashes = %v, want open", got)
	}
	if c.breakers.Degraded() != 1 {
		t.Fatalf("DegradedShards = %d, want 1", c.breakers.Degraded())
	}
	// ...after which the shard is skipped without being called.
	query(KindBreakerOpen)

	// Once the backoff elapses a probe goes out; still down → re-open.
	now = now.Add(time.Minute)
	query(KindCrash)
	if got := c.BreakerStates()[1]; got != stats.BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open", got)
	}

	// Shard heals; next probe succeeds and re-enables it.
	atomic.StoreInt32(&healthy, 1)
	now = now.Add(time.Minute)
	res, err := c.SearchInto(context.Background(), nil, 5, 32, nil)
	if err != nil {
		t.Fatalf("post-heal search: %v", err)
	}
	if res.Partial {
		t.Fatalf("post-heal query still partial: %+v", res)
	}
	want := hnsw.MergeTopK(nil, lists, 5)
	if !reflect.DeepEqual(res.Neighbors, want) {
		t.Fatalf("post-heal merge = %v, want %v", res.Neighbors, want)
	}
	if got := c.BreakerStates()[1]; got != stats.BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
	m := c.Metrics().Snapshot()
	if m.Crashes != failureThreshold+1 || m.BreakerTrips != 2 || m.BreakerSkips != 1 || m.Probes != 2 || m.Reenables != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestSlowShardTimesOutWithPartialPrefix(t *testing.T) {
	lists := fourLists()
	shards := []ShardFunc{
		staticShard(lists[0]),
		slowShard(lists[1], time.Minute),
		staticShard(lists[2]),
		staticShard(lists[3]),
	}
	c, err := New(shards, Config{Hedge: HedgeConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := c.SearchInto(ctx, nil, 10, 32, nil)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !res.Partial || len(res.Errors) != 1 {
		t.Fatalf("want partial with one error, got %+v", res)
	}
	if e := res.Errors[0]; e.Shard != 1 || e.Kind != KindTimeout {
		t.Fatalf("error = %+v, want shard 1 timeout", e)
	}
	// The slow shard's best-effort prefix (its first hit) is still merged.
	partial := [][]hnsw.Neighbor{lists[0], lists[1][:1], lists[2], lists[3]}
	want := hnsw.MergeTopK(nil, partial, 10)
	if !reflect.DeepEqual(res.Neighbors, want) {
		t.Fatalf("merge = %v, want %v", res.Neighbors, want)
	}
	if m := c.Metrics().Snapshot(); m.Timeouts != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHedgeFiresOnSlowShardAndWins(t *testing.T) {
	lists := fourLists()
	var calls, slowCall atomic.Int32
	moody := func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		if calls.Add(1) == slowCall.Load() {
			// The designated call stalls (the primary); the hedge lands on
			// the fast path below and must win the race.
			return slowShard(lists[1], time.Minute)(ctx, q, k, ef, dst)
		}
		return staticShard(lists[1])(ctx, q, k, ef, dst)
	}
	shards := []ShardFunc{staticShard(lists[0]), moody, staticShard(lists[2]), staticShard(lists[3])}
	c, err := New(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the latency tracker with fast responses.
	for i := 0; i < hedgeMinSamples; i++ {
		if _, err := c.SearchInto(context.Background(), nil, 5, 32, nil); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}
	// Stall the next primary; the hedge must fire and win.
	slowCall.Store(calls.Load() + 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.SearchInto(ctx, nil, 5, 32, nil)
	if err != nil {
		t.Fatalf("hedged search: %v", err)
	}
	if res.Hedged != 1 {
		t.Fatalf("Hedged = %d, want 1", res.Hedged)
	}
	if res.Partial {
		t.Fatalf("hedge-rescued query marked partial: %+v", res)
	}
	want := hnsw.MergeTopK(nil, lists, 5)
	if !reflect.DeepEqual(res.Neighbors, want) {
		t.Fatalf("merge = %v, want %v", res.Neighbors, want)
	}
	m := c.Metrics().Snapshot()
	if m.Hedges != 1 || m.HedgeWins != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestShedWhenShardBudgetExhausted(t *testing.T) {
	lists := fourLists()
	gate := make(chan struct{})
	blocked := make(chan struct{}, 1)
	blocking := func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		blocked <- struct{}{}
		<-gate
		return staticShard(lists[0])(ctx, q, k, ef, dst)
	}
	shards := []ShardFunc{blocking, staticShard(lists[1])}
	c, err := New(shards, Config{MaxInFlightPerShard: 1, Hedge: HedgeConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() {
		res, _ := c.SearchInto(context.Background(), nil, 5, 32, nil)
		done <- res
	}()
	<-blocked // shard 0's only slot is now held
	// Wait for the first query's shard-1 call to finish so its slot is
	// free again and only shard 0 sheds.
	for deadline := time.Now().Add(5 * time.Second); len(c.slots[1]) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("shard 1 slot never freed")
		}
		time.Sleep(time.Millisecond)
	}

	res, err := c.SearchInto(context.Background(), nil, 5, 32, nil)
	if err != nil {
		t.Fatalf("shed-path search: %v", err)
	}
	if !res.Partial || len(res.Errors) != 1 {
		t.Fatalf("want shed partial, got %+v", res)
	}
	if e := res.Errors[0]; e.Shard != 0 || e.Kind != KindShed || !errors.Is(e.Err, ErrShardShed) {
		t.Fatalf("error = %+v, want shard 0 shed", e)
	}
	if !reflect.DeepEqual(res.Neighbors, lists[1]) {
		t.Fatalf("shed merge = %v, want %v", res.Neighbors, lists[1])
	}

	close(gate)
	first := <-done
	if first.Partial {
		t.Fatalf("slot-holding query degraded: %+v", first)
	}
	if m := c.Metrics().Snapshot(); m.Sheds != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestAllShardsFailed(t *testing.T) {
	c, err := New([]ShardFunc{crashShard("a"), crashShard("b")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SearchInto(context.Background(), nil, 5, 32, nil)
	if !errors.Is(err, ErrAllShardsFailed) {
		t.Fatalf("err = %v, want ErrAllShardsFailed", err)
	}
	if !res.Partial || len(res.Errors) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if m := c.Metrics().Snapshot(); m.AllFailed != 1 || m.Crashes != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestPanickingShardIsContainedAsCrash(t *testing.T) {
	lists := fourLists()
	boom := func(context.Context, []float32, int, int, []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		panic("shard exploded")
	}
	c, err := New([]ShardFunc{staticShard(lists[0]), boom}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SearchInto(context.Background(), nil, 5, 32, nil)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !res.Partial || len(res.Errors) != 1 || res.Errors[0].Kind != KindCrash {
		t.Fatalf("result = %+v, want contained crash", res)
	}
	if !reflect.DeepEqual(res.Neighbors, lists[0]) {
		t.Fatalf("merge = %v, want %v", res.Neighbors, lists[0])
	}
}

func TestClientCancellationAbandonsGracefully(t *testing.T) {
	lists := fourLists()
	shards := []ShardFunc{slowShard(lists[0], time.Minute), slowShard(lists[1], time.Minute)}
	c, err := New(shards, Config{Hedge: HedgeConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := c.SearchInto(ctx, nil, 5, 32, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Partial {
		t.Fatalf("canceled query not partial: %+v", res)
	}
	for _, e := range res.Errors {
		if e.Kind != KindCanceled && e.Kind != KindTimeout {
			t.Fatalf("unexpected kind %v in %+v", e.Kind, res.Errors)
		}
	}
	// Breakers must not blame shards for the client's departure.
	for s, st := range c.BreakerStates() {
		if st != stats.BreakerClosed {
			t.Fatalf("shard %d breaker = %v after client cancel, want closed", s, st)
		}
	}
}

func TestNoGoroutineLeaksAcrossFaultMix(t *testing.T) {
	lists := fourLists()
	shards := []ShardFunc{
		staticShard(lists[0]),
		slowShard(lists[1], 30*time.Millisecond),
		crashShard("down"),
		staticShard(lists[3]),
	}
	c, err := New(shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Baseline()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
		_, _ = c.SearchInto(ctx, nil, 5, 32, nil)
		cancel()
	}
	leakcheck.SettleT(t, base)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New with no shards succeeded")
	}
	c, err := New([]ShardFunc{staticShard(nil)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 1 {
		t.Fatalf("Shards = %d", c.Shards())
	}
}

func TestErrKindAndShardErrorStrings(t *testing.T) {
	cases := map[ErrKind]string{
		KindCrash: "crash", KindTimeout: "timeout", KindCanceled: "canceled",
		KindBreakerOpen: "breaker-open", KindShed: "shed",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if got := ErrKind(99).String(); got != "ErrKind(99)" {
		t.Fatalf("unknown kind = %q", got)
	}
	e := ShardError{Shard: 2, Kind: KindCrash, Err: errors.New("boom")}
	if want := "shard 2 crash: boom"; e.Error() != want {
		t.Fatalf("ShardError = %q, want %q", e.Error(), want)
	}
	if !errors.Is(fmt.Errorf("wrap: %w", e), e.Err) && e.Unwrap() == nil {
		t.Fatal("ShardError does not unwrap")
	}
}

// TestShedProbeNotCounted: a due probe that the shard's in-flight budget
// sheds never reaches the shard, so Metrics.Probes must not count it. The
// only slot is held by an earlier probe its client abandoned.
func TestShedProbeNotCounted(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	lists := fourLists()
	var hang atomic.Bool
	gate := make(chan struct{})
	blocked := make(chan struct{}, 1)
	shard0 := func(context.Context, []float32, int, int, []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		if !hang.Load() {
			return nil, errors.New("shard down")
		}
		blocked <- struct{}{}
		<-gate // holds the slot past its client's departure
		return nil, errors.New("shard down")
	}
	shards := []ShardFunc{shard0, staticShard(lists[1])}
	c, err := New(shards, Config{MaxInFlightPerShard: 1, Hedge: HedgeConfig{Disabled: true}, now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer close(gate)
	for i := 0; i < failureThreshold; i++ {
		waitSlotFree(t, c, 0)
		waitSlotFree(t, c, 1)
		if _, err := c.SearchInto(context.Background(), nil, 5, 32, nil); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	if m := c.Metrics().Snapshot(); m.BreakerTrips != 1 {
		t.Fatalf("breaker not open after %d crashes: %+v", failureThreshold, m)
	}

	// The first probe goes out, hangs on the only slot, and its client
	// leaves: the probe is released, the slot stays held.
	hang.Store(true)
	now = now.Add(time.Minute)
	waitSlotFree(t, c, 0)
	waitSlotFree(t, c, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-blocked
		cancel()
	}()
	if _, err := c.SearchInto(ctx, nil, 5, 32, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned probe: err = %v, want context.Canceled", err)
	}

	// The next probe is due but the budget sheds it before it launches.
	now = now.Add(time.Minute)
	waitSlotFree(t, c, 1)
	res, err := c.SearchInto(context.Background(), nil, 5, 32, nil)
	if err != nil {
		t.Fatalf("shed-probe search: %v", err)
	}
	if len(res.Errors) != 1 || res.Errors[0].Shard != 0 || res.Errors[0].Kind != KindShed {
		t.Fatalf("errors = %+v, want shard 0 shed", res.Errors)
	}
	if m := c.Metrics().Snapshot(); m.Probes != 1 || m.Sheds != 1 {
		t.Fatalf("probes = %d, sheds = %d; want 1 probe sent, 1 shed", m.Probes, m.Sheds)
	}
}

// waitSlotFree waits until no call holds shard s's in-flight slot; a call
// releases it only after delivering its response.
func waitSlotFree(t *testing.T, c *Coordinator, s int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(c.slots[s]) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d slot never freed", s)
		}
		time.Sleep(time.Millisecond)
	}
}
