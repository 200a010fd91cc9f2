// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the scaled-down synthetic workloads. Each Fig/Table
// function returns a formatted Table; the per-experiment index in DESIGN.md
// maps paper artifacts to these functions and to the benchmark targets in
// the repository root.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/hnsw"
	"ansmet/internal/ivf"
	"ansmet/internal/rows"
	"ansmet/internal/sim"
)

// Scale controls workload sizes. The paper runs billion-scale datasets on a
// cycle-accurate simulator farm; this reproduction documents its scale next
// to every result.
type Scale struct {
	// N maps profile name to database size.
	N map[string]int
	// Queries is the query-set size per dataset.
	Queries int
	// EfConstruction is the HNSW build beam (paper: 500).
	EfConstruction int
	// M / MaxDegree are the HNSW degree parameters (paper caps degree 16).
	M, MaxDegree int
	// EfSearch is the default search beam (tuned so recall@10 >= 0.8,
	// following §6).
	EfSearch int
	// Seed drives all generators.
	Seed uint64
}

// DefaultScale is used by the benchmark harness.
func DefaultScale() Scale {
	return Scale{
		N: map[string]int{
			"SIFT": 6000, "BigANN": 6000, "SPACEV": 6000, "DEEP": 5000,
			"GloVe": 4000, "Txt2Img": 2500, "GIST": 1000,
		},
		Queries:        32,
		EfConstruction: 120,
		M:              8,
		MaxDegree:      16,
		EfSearch:       60,
		Seed:           2025,
	}
}

// QuickScale is a fast variant for smoke tests.
func QuickScale() Scale {
	s := DefaultScale()
	s.N = map[string]int{
		"SIFT": 1500, "BigANN": 1500, "SPACEV": 1500, "DEEP": 1200,
		"GloVe": 1000, "Txt2Img": 800, "GIST": 400,
	}
	s.Queries = 12
	s.EfConstruction = 60
	return s
}

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// workload caches the expensive per-dataset artifacts (generation, index
// construction, ground truth) across experiments.
type workload struct {
	ds *dataset.Dataset
	// rows is the dataset packed once, in its element type: the slab the
	// index is built over and every design's system shares.
	rows *rows.Slab
	hnsw *hnsw.Index
	ivf  *ivf.Index
	gt   [][]uint32 // ground truth at k=10
}

// Runner owns the cached workloads for one Scale. A Runner is safe for
// concurrent use; cache entries are built single-flight (two cells asking
// for the same dataset or system never build it twice, and neither blocks
// unrelated builds).
type Runner struct {
	Scale Scale

	// workers bounds the per-generator cell parallelism; <= 1 runs cells
	// serially (the default). Set via Parallel.
	workers int

	mu       sync.Mutex
	cache    map[string]*wEntry
	sysCache map[string]*sysEntry

	// table4 returns the Table 4 rows it timed on its first call.
	table4 func() [][]string
}

// wEntry is a single-flight workload cache slot: the entry is published
// under the Runner mutex, the build runs once under the entry's own Once.
type wEntry struct {
	once sync.Once
	w    *workload
}

type sysEntry struct {
	once sync.Once
	sys  *sim.Model
}

// NewRunner creates an experiment runner.
func NewRunner(s Scale) *Runner {
	r := &Runner{Scale: s, cache: map[string]*wEntry{}, sysCache: map[string]*sysEntry{}}
	r.table4 = sync.OnceValue(r.timePreprocessing)
	return r
}

// Parallel sets the cell worker count for subsequent generator calls and
// returns the Runner. n <= 0 selects GOMAXPROCS. Generators produce the
// same bytes regardless of the worker count: cells are computed
// independently and assembled in deterministic order, and the cached
// wall-clock measurements (Table 4) are taken once per Runner.
func (r *Runner) Parallel(n int) *Runner {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	r.workers = n
	return r
}

// parMap runs fn(0..n-1) on the Runner's worker pool. With workers <= 1 (or
// a single item) it degenerates to a plain ordered loop. fn must write its
// result to its own index of a pre-sized slice; assembly happens after
// parMap returns, in index order.
func (r *Runner) parMap(n int, fn func(i int)) {
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// load builds (or returns cached) dataset + indexes for a profile.
func (r *Runner) load(name string) *workload {
	r.mu.Lock()
	e, ok := r.cache[name]
	if !ok {
		e = &wEntry{}
		r.cache[name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		p := dataset.ProfileByName(name)
		n := r.Scale.N[name]
		if n == 0 {
			n = 1000
		}
		ds := dataset.Generate(p, n, r.Scale.Queries, r.Scale.Seed)
		rs := ds.Rows()
		vx, err := ivf.Build(ds.Vectors, p.Metric, ivf.Config{MaxIters: 10, Seed: r.Scale.Seed})
		if err != nil {
			panic(fmt.Sprintf("experiments: %s ivf build: %v", name, err))
		}
		e.w = &workload{ds: ds, rows: rs, hnsw: r.buildGraph(rs, p), ivf: vx, gt: ds.GroundTruth(10)}
	})
	return e.w
}

// buildGraph builds the HNSW graph over a profile's rows at the Runner's scale.
func (r *Runner) buildGraph(rs *rows.Slab, p dataset.Profile) *hnsw.Index {
	hx, err := hnsw.Build(rs, p.Metric, hnsw.Config{
		M: r.Scale.M, MaxDegree: r.Scale.MaxDegree,
		EfConstruction: r.Scale.EfConstruction, Seed: r.Scale.Seed,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %s hnsw build: %v", p.Name, err))
	}
	return hx
}

// system preprocesses a design over a cached workload and puts a platform
// around it: the default one, or the defaults edited by mutate, which sees
// the view's configuration and the model's. Default systems (nil mutate) are
// cached single-flight: several figures revisit the same (dataset, design)
// pair, and two parallel cells never preprocess it twice. Mutated systems
// are private to the caller.
func (r *Runner) system(name string, d core.Design, mutate func(*core.SystemConfig, *sim.Config)) (*workload, *sim.Model) {
	w := r.load(name)
	build := func() *sim.Model {
		cfg, mcfg := core.DefaultSystemConfig(d), sim.DefaultConfig()
		cfg.Seed = r.Scale.Seed
		if mutate != nil {
			mutate(&cfg, &mcfg)
		}
		sys, err := core.NewSystem(w.rows, w.ds.Profile.Metric, w.hnsw, cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s/%v: %v", name, d, err))
		}
		m, err := sim.NewModel(sys, mcfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s/%v: %v", name, d, err))
		}
		return m
	}
	if mutate != nil {
		return w, build()
	}
	key := fmt.Sprintf("%s/%d", name, d)
	r.mu.Lock()
	e, ok := r.sysCache[key]
	if !ok {
		e = &sysEntry{}
		r.sysCache[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.sys = build() })
	return w, e.sys
}

// stream is the sustained query stream every timed cell replays
// (sim.Model.Stream): the paper's throughput-bound regime.
const stream = 96

// recallNN is dataset.RecallAtK of one result list.
func recallNN(nn []hnsw.Neighbor, truth []uint32) float64 {
	ids := make([]uint32, len(nn))
	for i, n := range nn {
		ids[i] = n.ID
	}
	return dataset.RecallAtK(ids, truth)
}

// AllProfiles lists the dataset order used throughout the evaluation.
var AllProfiles = []string{"SIFT", "BigANN", "SPACEV", "DEEP", "GloVe", "Txt2Img", "GIST"}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
