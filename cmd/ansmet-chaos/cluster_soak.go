// Cluster-mode soak: runs the full sharded serving stack — real shard
// Databases behind the scatter-gather coordinator behind the HTTP layer —
// with three misbehaving shards (one crashed, one intermittently slow, one
// flapping) and checks the degradation invariants end to end:
//
//   - merged-result stability: with the crashed shard fenced off, repeated
//     identical queries return byte-identical degraded answers, equal to
//     the merge over the healthy shards computed independently;
//   - partial accounting: every degraded 200 carries the X-ANSMET-Partial
//     header + "partial" JSON field, and the server's Partials counter
//     matches the responses observed on the wire;
//   - 429 accounting: an overload burst is shed at admission, the Shed
//     counter matches the 429s observed, and overload never surfaces 5xx;
//   - breaker lifecycle: the crashed shard's breaker opens and stays not
//     closed, probes fire, and the flapping shard's breaker re-closes;
//   - hedging: intermittent slowness triggers hedges without changing
//     results;
//   - no goroutine leaks once the soak ends.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ansmet"
	"ansmet/internal/cluster"
	"ansmet/internal/dataset"
	"ansmet/internal/hnsw"
	"ansmet/internal/leakcheck"
	"ansmet/internal/serve"
)

// soakShardFunc adapts one shard Database into the coordinator interface.
// Shards hold contiguous vector ranges, so the local→global remap is an
// offset shift that preserves the canonical (Dist, ID) order.
func soakShardFunc(db *ansmet.Database, offset uint32) cluster.ShardFunc {
	return func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		out, err := db.SearchCtxInto(ctx, q, k, ef, dst)
		if err != nil {
			var ce *ansmet.CancelError
			if errors.As(err, &ce) && ce.Partial {
				for i := range out {
					out[i].ID += offset
				}
				return out, err
			}
			return nil, err
		}
		for i := range out {
			out[i].ID += offset
		}
		return out, nil
	}
}

func runClusterSoak(n int, seed uint64) error {
	const shards = 4
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, n, 8, 51)
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 7}

	// Contiguous range partition: shard s owns rows [s*per, (s+1)*per).
	per := n / shards
	dbs := make([]*ansmet.Database, shards)
	offsets := make([]uint32, shards)
	for s := 0; s < shards; s++ {
		lo, hi := s*per, (s+1)*per
		if s == shards-1 {
			hi = n
		}
		db, err := ansmet.New(ds.Vectors[lo:hi], build)
		if err != nil {
			return err
		}
		dbs[s], offsets[s] = db, uint32(lo)
	}

	// Fault switches the driver flips between phases (deterministic — no
	// call counting).
	var (
		crashed   atomic.Bool  // shard 1: panic on every call
		flapFail  atomic.Bool  // shard 3: error on every call
		slowEvery atomic.Int64 // shard 2: every Nth call sleeps (0: never)
		slowCalls atomic.Int64
	)
	const slowSleep = 30 * time.Millisecond

	faulty := make([]cluster.ShardFunc, shards)
	for s := 0; s < shards; s++ {
		inner := soakShardFunc(dbs[s], offsets[s])
		switch s {
		case 1:
			faulty[s] = func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
				if crashed.Load() {
					panic("injected shard crash")
				}
				return inner(ctx, q, k, ef, dst)
			}
		case 2:
			faulty[s] = func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
				if every := slowEvery.Load(); every > 0 && slowCalls.Add(1)%every == 0 {
					select {
					case <-time.After(slowSleep):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				return inner(ctx, q, k, ef, dst)
			}
		case 3:
			faulty[s] = func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
				if flapFail.Load() {
					return nil, errors.New("injected flapping fault")
				}
				return inner(ctx, q, k, ef, dst)
			}
		default:
			faulty[s] = inner
		}
	}

	coord, err := cluster.New(faulty, cluster.Config{
		ShardTimeout: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	// Reference coordinator over the healthy subset {0, 2, 3}: what a
	// degraded query (shard 1 fenced) must merge to, computed without any
	// fault wrappers.
	healthy := []cluster.ShardFunc{
		soakShardFunc(dbs[0], offsets[0]),
		soakShardFunc(dbs[2], offsets[2]),
		soakShardFunc(dbs[3], offsets[3]),
	}
	ref, err := cluster.New(healthy, cluster.Config{
		ShardTimeout: 2 * time.Second,
		Hedge:        cluster.HedgeConfig{Disabled: true},
	})
	if err != nil {
		return err
	}

	core, err := serve.New(serve.Config{
		// The coordinator has one path: mode and recall target are ignored.
		SearchPrecision: func(ctx context.Context, q []float32, k, ef int, _ string, _ float64) (serve.Outcome, error) {
			res, err := coord.Search(ctx, q, k, ef)
			out := serve.Outcome{Neighbors: res.Neighbors, Partial: res.Partial, Hedged: res.Hedged}
			for _, se := range res.Errors {
				out.Faults = append(out.Faults, se.Error())
			}
			return out, err
		},
		ExtraVars: func() map[string]any {
			return map[string]any{"cluster": coord.Metrics().Snapshot()}
		},
		DefaultTimeout: 2 * time.Second,
		Admission: serve.AdmissionConfig{
			MaxConcurrent: 4, MaxQueue: 4,
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: core.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	var observed429, observedPartial atomic.Int64
	post := func(ctx context.Context, qi, k int) (int, []byte, http.Header, error) {
		body, _ := json.Marshal(serve.SearchRequest{Query: ds.Queries[qi%len(ds.Queries)], K: k})
		req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/search", bytes.NewReader(body))
		if err != nil {
			return 0, nil, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, nil, err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == 429 {
			observed429.Add(1)
		}
		if resp.StatusCode == 200 && resp.Header.Get(serve.PartialHeader) == "true" {
			observedPartial.Add(1)
		}
		return resp.StatusCode, data, resp.Header, nil
	}

	ctx := context.Background()

	// Phase 0: healthy warmup — all shards answering, latency trackers
	// filling past the hedge's cold-shard floor (16 responses). Responses
	// must be complete.
	for i := 0; i < 24; i++ {
		code, data, hdr, err := post(ctx, i, 10)
		if err != nil || code != 200 {
			return fmt.Errorf("warmup query %d: code %d, err %v", i, code, err)
		}
		var sr serve.SearchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			return err
		}
		if sr.Partial || hdr.Get(serve.PartialHeader) != "" {
			return fmt.Errorf("warmup query %d flagged partial with all shards healthy", i)
		}
	}
	baseline := leakcheck.Baseline()
	fmt.Printf("    warmup: 24 healthy queries, none partial\n")

	// Phase 1: crash shard 1 (panics on every call) and turn on
	// intermittent slowness on shard 2. Every response must now be a
	// flagged partial whose merge is byte-identical to the healthy-subset
	// reference — and identical across repeats (merged-result stability).
	crashed.Store(true)
	slowEvery.Store(16)
	const stableQuery = 3 // one fixed query: repeats must not wobble
	want, err := ref.Search(ctx, ds.Queries[stableQuery], 10, 32)
	if err != nil || want.Partial {
		return fmt.Errorf("reference merge failed: %+v %v", want, err)
	}
	for i := 0; i < 64; i++ {
		code, data, hdr, err := post(ctx, stableQuery, 10)
		if err != nil || code != 200 {
			return fmt.Errorf("degraded query %d: code %d, err %v", i, code, err)
		}
		if hdr.Get(serve.PartialHeader) != "true" {
			return fmt.Errorf("degraded query %d missing %s header", i, serve.PartialHeader)
		}
		var sr serve.SearchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			return err
		}
		if !sr.Partial || len(sr.Faults) == 0 {
			return fmt.Errorf("degraded query %d: partial=%v faults=%v", i, sr.Partial, sr.Faults)
		}
		// The merged answer must be exactly the healthy-subset reference,
		// every time — regardless of whether this repeat hit a breaker
		// skip, a failed probe, or a hedge. (The fault strings DO vary
		// across repeats as the breaker cycles; the merge must not.)
		if len(sr.Results) != len(want.Neighbors) {
			return fmt.Errorf("degraded query %d: %d results, reference %d", i, len(sr.Results), len(want.Neighbors))
		}
		for j, nb := range want.Neighbors {
			if sr.Results[j].ID != nb.ID || sr.Results[j].Dist != nb.Dist {
				return fmt.Errorf("degraded query %d diverges from healthy-subset reference at %d: %+v != %+v",
					i, j, sr.Results[j], nb)
			}
		}
	}
	m := coord.Metrics().Snapshot()
	if m.Crashes == 0 || m.BreakerTrips == 0 || m.BreakerSkips == 0 {
		return fmt.Errorf("crashed shard never tripped its breaker: %+v", m)
	}
	if m.Hedges == 0 {
		return fmt.Errorf("intermittent slow shard never triggered a hedge: %+v", m)
	}
	fmt.Printf("    crashed+slow: 64 stable partials; crashes=%d trips=%d skips=%d hedges=%d wins=%d\n",
		m.Crashes, m.BreakerTrips, m.BreakerSkips, m.Hedges, m.HedgeWins)

	// Phase 2: flap shard 3 — fail enough consecutive calls to trip its
	// breaker, then heal and wait for a half-open probe to re-close it.
	slowEvery.Store(0)
	flapFail.Store(true)
	for i := 0; i < 6; i++ {
		if code, _, _, err := post(ctx, i, 10); err != nil || code != 200 {
			return fmt.Errorf("flap query %d: code %d, err %v", i, code, err)
		}
	}
	flapFail.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for coord.Metrics().Snapshot().Reenables == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("flapping shard's breaker never re-closed: %+v", coord.Metrics().Snapshot())
		}
		if code, _, _, err := post(ctx, 0, 10); err != nil || code != 200 {
			return fmt.Errorf("probe-wait query: code %d, err %v", code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	m = coord.Metrics().Snapshot()
	if m.Probes == 0 || m.Reenables == 0 {
		return fmt.Errorf("breaker probe lifecycle missing: %+v", m)
	}
	fmt.Printf("    flapping shard: breaker tripped, probed, re-closed (probes=%d reenables=%d)\n",
		m.Probes, m.Reenables)

	// Phase 3: overload burst. Slow every shard-2 call so requests dwell in
	// their admission slots; 96 concurrent posts against 4+4 capacity must
	// shed with 429s and never 5xx.
	slowEvery.Store(1)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		counts = map[int]int{}
	)
	for i := 0; i < 96; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, _, err := post(ctx, i, 10)
			if err != nil {
				return
			}
			mu.Lock()
			counts[code]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	slowEvery.Store(0)
	if counts[429] == 0 {
		return fmt.Errorf("overload burst: nothing shed with 429 (counts %v)", counts)
	}
	for code, c := range counts {
		if code >= 500 {
			return fmt.Errorf("overload burst: %d responses with status %d, want none", c, code)
		}
	}
	fmt.Printf("    overload burst: %v (shed with 429, no 5xx)\n", counts)

	// Accounting: the server's counters must match what the wire saw.
	sm := core.Metrics()
	if got, want := sm.Shed.Load(), observed429.Load(); got != want {
		return fmt.Errorf("shed accounting: server counted %d 429s, wire saw %d", got, want)
	}
	if got, want := sm.Partials.Load(), observedPartial.Load(); got != want {
		return fmt.Errorf("partial accounting: server counted %d partials, wire saw %d", got, want)
	}
	fmt.Printf("    accounting: shed=%d partials=%d match the wire\n", sm.Shed.Load(), sm.Partials.Load())

	// The crashed shard's breaker must still be fencing it off, and the
	// cluster counters must be visible through /debug/vars.
	if st := coord.BreakerStates()[1]; st == cluster.BreakerClosed {
		return fmt.Errorf("crashed shard's breaker closed again while it still panics")
	}
	resp, err := client.Get(base + "/debug/vars")
	if err != nil {
		return err
	}
	varsBody, err := io.ReadAll(resp.Body) // read fully so the conn goes idle before Shutdown
	resp.Body.Close()
	if err != nil {
		return err
	}
	var vars struct {
		Cluster cluster.MetricsSnapshot `json:"cluster"`
	}
	if err := json.Unmarshal(varsBody, &vars); err != nil {
		return err
	}
	if vars.Cluster.Queries == 0 || vars.Cluster.Crashes == 0 {
		return fmt.Errorf("cluster counters missing from /debug/vars: %+v", vars.Cluster)
	}
	fmt.Printf("    debug vars: cluster section live (queries=%d)\n", vars.Cluster.Queries)

	// Drain and leak check: the soak spawned fan-out goroutines, hedges,
	// abandoned panics — everything must settle back to baseline.
	core.Drain()
	client.CloseIdleConnections()
	sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain overran its deadline: %v", err)
	}
	if err := leakcheck.Settle(baseline); err != nil {
		return err
	}
	fmt.Printf("    goroutines: %d (baseline %d) — no leak\n", runtime.NumGoroutine(), baseline)
	return nil
}
