// Command ansmet-serve exposes an ANSMET database over HTTP/JSON with the
// request-layer robustness the library alone cannot provide: per-request
// deadlines propagated cooperatively into the search loops, token-bucket +
// bounded-queue admission control that sheds load with 429s before doing
// work, panic-to-500 containment, and graceful drain on SIGTERM (stop
// accepting, finish in-flight up to -drain, then hard-cancel stragglers
// through the context plumbing).
//
// With -shards N the database is partitioned behind the fault-tolerant
// scatter-gather coordinator: per-shard deadline budgets carved from the
// request deadline, hedged requests to slow shards, per-shard circuit
// breakers, and partial-result degradation surfaced as the
// X-ANSMET-Partial header plus "partial"/"faults" response fields.
//
// Endpoints:
//
//	POST /v1/search  {"query":[...], "k":10, "ef":64, "timeout_ms":500}
//	                 optional "mode": "host" | "exact" | "auto",
//	                 optional "recall_target": (0, 1]; the X-ANSMET-Route
//	                 response header names the engine that answered
//	POST /v1/upsert  {"vector":[...]} or {"id":7,"vector":[...]} (-mutable)
//	POST /v1/delete  {"id":7}                                    (-mutable)
//	GET  /v1/health  liveness (200 while the process runs)
//	GET  /v1/ready   readiness (503 while draining)
//	GET  /debug/vars serving + admission (+ cluster) counters, JSON
//
// A /v1/search or /v1/upsert body in canonical form (one object, the keys
// above in lower case and any order, plain JSON numbers, no string escapes)
// is decoded in one pass without reflection; every other body, malformed
// ones included, is decoded by encoding/json, so its verdict and its error
// text are the only ones a client sees. "wire_fallbacks" in the serve
// section of /debug/vars counts the bodies that took the second path.
//
// Usage:
//
//	ansmet-serve -db snapshot.db                 # serve a SaveFile snapshot
//	ansmet-serve -synth 5000 -profile SIFT       # demo: synthetic dataset
//	ansmet-serve -synth 5000 -shards 4           # sharded scatter-gather
//	ansmet-serve -shards 4 -cluster-dir ./cl     # load (or build+save) per-shard snapshots
//
// Example:
//
//	curl -s localhost:8080/v1/search -d '{"query":[...128 floats...],"k":5}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ansmet"
	"ansmet/internal/dataset"
	"ansmet/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dbPath     = flag.String("db", "", "snapshot written by SaveFile (empty: build synthetic)")
		synth      = flag.Int("synth", 2000, "synthetic dataset size when -db is empty")
		profile    = flag.String("profile", "SIFT", "synthetic dataset profile (SIFT, DEEP, SPACEV, ...)")
		timeout    = flag.Duration("timeout", 2*time.Second, "default per-request search deadline")
		maxTO      = flag.Duration("max-timeout", 10*time.Second, "cap on client-requested deadlines")
		rate       = flag.Float64("rate", 0, "sustained admission rate, requests/s (0: unlimited)")
		burst      = flag.Int("burst", 0, "token bucket burst (0: rate-derived)")
		conc       = flag.Int("concurrency", 0, "max concurrent searches (0: 8)")
		queue      = flag.Int("queue", 0, "admission queue depth beyond concurrency (0: 2x concurrency)")
		body       = flag.Int64("max-body", 1<<20, "request body size limit, bytes")
		drain      = flag.Duration("drain", 10*time.Second, "graceful drain deadline on SIGTERM")
		shards     = flag.Int("shards", 0, "shard count for scatter-gather serving (0: unsharded)")
		partition  = flag.String("partition", "hash", "shard partitioning scheme (hash, kmeans)")
		clusterDir = flag.String("cluster-dir", "", "cluster snapshot directory: load if a manifest exists, else build and save into it (requires -shards)")
		noHedge    = flag.Bool("no-hedge", false, "disable hedged requests to slow shards")
		mutable    = flag.Bool("mutable", false, "enable live mutation (POST /v1/upsert, /v1/delete); implied when -db holds a live snapshot")
		walPath    = flag.String("wal", "", "journal path for crash-safe mutation (with -db: must be <db>.wal, the default; empty without -db: unjournaled)")
	)
	flag.Parse()
	prof, err := dataset.ParseProfile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := serve.Config{
		BadRequest: func(err error) bool {
			return ansmet.IsInvalidInput(err) || ansmet.IsMutationError(err)
		},
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		MaxBodyBytes:   *body,
		Admission: serve.AdmissionConfig{
			RatePerSec:    *rate,
			Burst:         *burst,
			MaxConcurrent: *conc,
			MaxQueue:      *queue,
		},
	}

	if *shards > 0 || *clusterDir != "" {
		if *mutable || *walPath != "" {
			log.Fatalf("ansmet-serve: -mutable/-wal serve a single live database; sharded serving is immutable")
		}
		cl, err := openCluster(*dbPath, prof, *partition, *clusterDir, *synth, *shards, *conc, *noHedge)
		if err != nil {
			log.Fatalf("ansmet-serve: %v", err)
		}
		st := cl.Stats()
		log.Printf("cluster ready: %d vectors across %d shards (%s partition)", st.Vectors, st.Shards, st.Partition)
		wireSearch(&cfg, func(ctx context.Context, q *ansmet.Query) (serve.Outcome, error) {
			res, err := cl.Do(ctx, q)
			return clusterOutcome(res), err
		})
		cfg.ExtraVars = func() map[string]any {
			return map[string]any{"cluster": cl.Stats()}
		}
	} else {
		db, err := openDatabase(*dbPath, prof, *synth, *mutable)
		if err != nil {
			log.Fatalf("ansmet-serve: %v", err)
		}
		if *walPath != "" && !db.Mutable() {
			log.Fatalf("ansmet-serve: -wal needs a mutable database (-mutable, or a live snapshot)")
		}
		if db.Mutable() {
			// A live snapshot auto-attached <db>.wal in LoadFile: naming that
			// journal again is a no-op, any other is refused (its records
			// would not belong to this snapshot). Without -db, -wal journals
			// the synthetic demo database.
			if *walPath != "" {
				if err := db.AttachWAL(*walPath); err != nil {
					log.Fatalf("ansmet-serve: attaching journal %s: %v", *walPath, err)
				}
			}
			if j := db.WALPath(); j != "" {
				log.Printf("mutation journal: %s", j)
			} else {
				log.Printf("WARNING: mutable without a journal (-wal); mutations are lost on crash")
			}
			cfg.Upsert = func(ctx context.Context, id uint32, hasID bool, vec []float32) (uint32, error) {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				if hasID {
					return db.Update(id, vec)
				}
				return db.Add(vec)
			}
			cfg.Delete = func(ctx context.Context, id uint32) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				return db.Delete(id)
			}
		}
		st := db.Stats()
		log.Printf("database ready: %d vectors, dim %d", st.Vectors, st.Dim)
		wireSearch(&cfg, func(ctx context.Context, q *ansmet.Query) (serve.Outcome, error) {
			res, err := db.Do(ctx, q)
			return serve.Outcome{Neighbors: res.Neighbors, Route: res.Route.String()}, err
		})
		cfg.ExtraVars = func() map[string]any {
			vars := map[string]any{"router": db.RouterStats()}
			if db.Mutable() {
				st := db.Stats()
				vars["mutation"] = map[string]any{
					"adds":           st.Adds,
					"deletes":        st.Deletes,
					"updates":        st.Updates,
					"repair_batches": st.RepairBatches,
					"tombstones":     st.Tombstones,
					"pending_repair": st.PendingRepair,
					"wal_last_seq":   st.WALLastSeq,
					"wal_replayed":   st.WALReplayed,
				}
			}
			return vars
		}
	}

	srvCore, err := serve.New(cfg)
	if err != nil {
		log.Fatalf("ansmet-serve: %v", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srvCore.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("ansmet-serve: %v", err)
	case s := <-sig:
		log.Printf("received %v: draining (deadline %v)", s, *drain)
	}

	// Graceful drain: readiness goes 503, new searches are refused,
	// in-flight ones finish — up to the drain deadline, after which the
	// context plumbing hard-cancels the stragglers.
	srvCore.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("drain deadline passed (%v): hard-cancelling in-flight searches", err)
		srvCore.HardCancel()
		httpSrv.Close()
	}
	log.Printf("drained cleanly")
}

// wireSearch installs the /v1/search hook over one query function
// (Database.Do or Cluster.Do), so single and sharded serving resolve a
// request to a Query the same way:
//
//   - no "mode", no "recall_target": the host beam, what SearchEfCtx runs on
//     every database;
//   - "recall_target" with no mode or with "mode":"auto": the caller states
//     the quality, and the exact scan meets every target;
//   - any other "mode": that route, "auto" asking the router.
//
// Every outcome names the route that ran (the X-ANSMET-Route header).
func wireSearch(cfg *serve.Config, do func(context.Context, *ansmet.Query) (serve.Outcome, error)) {
	cfg.SearchPrecision = func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (serve.Outcome, error) {
		route := ansmet.RouteHost
		if mode != "" {
			var err error
			if route, err = ansmet.ParseRoute(mode); err != nil {
				return serve.Outcome{}, err
			}
		}
		if rt > 0 && (mode == "" || route == ansmet.RouteAuto) {
			route = ansmet.RouteExact
		}
		return do(ctx, &ansmet.Query{Vector: q, K: k, Ef: ef, Route: route})
	}
}

// clusterOutcome maps a cluster result to the serving layer's outcome.
func clusterOutcome(res ansmet.ClusterResult) serve.Outcome {
	out := serve.Outcome{Neighbors: res.Neighbors, Partial: res.Partial, Route: res.Route.String()}
	for _, f := range res.Faults {
		out.Faults = append(out.Faults, fmt.Sprintf("shard %d: %s: %v", f.Shard, f.Kind, f.Err))
	}
	return out
}

// openDatabase loads a snapshot or builds a synthetic demo database. A
// live snapshot comes back mutable regardless of the flag (replaying its
// journal); -mutable additionally makes a synthetic build mutable.
func openDatabase(path string, p dataset.Profile, synth int, mutable bool) (*ansmet.Database, error) {
	if path != "" {
		db, err := ansmet.LoadFile(path, nil)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		if mutable && !db.Mutable() {
			return nil, fmt.Errorf("%s is an immutable snapshot; rebuild with Options.Mutable to serve writes", path)
		}
		return db, nil
	}
	if synth < 50 {
		return nil, errors.New("-synth must be at least 50")
	}
	ds := dataset.Generate(p, synth, 1, 42)
	log.Printf("building synthetic %s database (%d vectors, dim %d)...", p.Name, synth, p.Dim)
	return ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 100, Seed: 42,
		Mutable: mutable,
	})
}

// openCluster restores a cluster from -cluster-dir when a manifest is
// present, or builds one (synthetic dataset) and, when -cluster-dir is
// set, saves the per-shard snapshots there for the next start.
func openCluster(dbPath string, p dataset.Profile, partition, dir string, synth, shards, conc int, noHedge bool) (*ansmet.Cluster, error) {
	if dbPath != "" {
		return nil, errors.New("-shards partitions a built dataset; combine it with -synth or -cluster-dir, not -db")
	}
	scheme, err := ansmet.ParsePartitionScheme(partition)
	if err != nil {
		return nil, err
	}
	// Aggregate admission works in layers: the serve admission controller
	// bounds concurrent REQUESTS, and each admitted request holds one slot
	// on every shard it fans out to. Sizing the per-shard budget to the
	// request concurrency plus hedge headroom means shard-level shedding
	// only fires when hedges pile onto an already-degraded shard — healthy
	// traffic is never shed twice.
	if conc <= 0 {
		conc = 8 // serve.AdmissionConfig's MaxConcurrent default
	}
	opts := ansmet.ClusterOptions{
		Shards:              shards,
		Partition:           scheme,
		MaxInFlightPerShard: conc + 2,
		DisableHedging:      noHedge,
	}
	if dir != "" {
		if _, statErr := os.Stat(filepath.Join(dir, ansmet.ClusterManifestName)); statErr == nil {
			cl, err := ansmet.LoadClusterDir(dir, opts)
			if err != nil {
				return nil, fmt.Errorf("restoring cluster from %s: %w", dir, err)
			}
			log.Printf("restored cluster snapshots from %s", dir)
			return cl, nil
		}
	}
	if shards <= 0 {
		return nil, errors.New("-cluster-dir has no manifest to restore; pass -shards to build one")
	}
	if synth < 50 {
		return nil, errors.New("-synth must be at least 50")
	}
	ds := dataset.Generate(p, synth, 1, 42)
	opts.Build = ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 100, Seed: 42}
	log.Printf("building synthetic %s cluster (%d vectors, dim %d, %d shards)...", p.Name, synth, p.Dim, shards)
	cl, err := ansmet.NewCluster(ds.Vectors, opts)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if err := cl.SaveDir(dir); err != nil {
			return nil, fmt.Errorf("saving cluster to %s: %w", dir, err)
		}
		log.Printf("saved per-shard snapshots to %s", dir)
	}
	return cl, nil
}
