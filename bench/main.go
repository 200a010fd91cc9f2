// Command bench is the repository's benchmark: it builds cmd/ansmet-serve,
// generates a workload from a seed, builds and snapshots the index through
// the public ansmet API, serves the snapshot from the real binary on a
// loopback port, drives it over HTTP, checks every answer, and prints each
// metric by name with its unit. The last line of standard output is the
// JSON result the driver reads. See README.md for the workloads, the
// metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"ansmet"
	"ansmet/internal/serve"
	"ansmet/internal/vecmath"
)

// setup_s is timed on set-ups (build + snapshot + server start) of the
// first 1/setupSlice of the population, setupRepeats of them in an untraced
// run, and is the fastest: the one the machine disturbed least. A set-up of
// the whole population takes seconds, and nothing that long escapes the
// machine's slow spells (README.md, "Load shape"); it is done once, for the
// server the run measures, and printed beside the metrics.
const (
	setupSlice   = 8
	setupRepeats = 8
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root: holds go.mod and cmd/ansmet-serve
	scale    int    // divides the workload's size; >1 only in the smoke test
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing outcome; its JSON form is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one invocation measured. The driver gets one metric
// set per run: the end-to-end one untraced, the per-layer one traced.
type report struct {
	cfg                         config
	cpu                         int // the CPU everything is pinned to, -1 if it could not be
	writes                      int
	searchSamples, writeSamples int
	repetitions                 int // of the least repeated timed query
	fullSetupS                  float64
	windowRates                 []float64
	endToEnd, perLayer          map[string]metric
	attempted, failed           int
	shed, short                 int
	firstFailure                string
}

func (rp *report) result() result {
	res := result{Correct: rp.failed == 0, Attempted: rp.attempted, Failed: rp.failed, Metrics: rp.endToEnd}
	if rp.cfg.trace {
		res.Metrics = rp.perLayer
	}
	return res
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see README.md)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for vectors, queries and the delete permutation")
	flag.IntVar(&cfg.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: also run the in-process traced passes and report the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.scale = 1

	// run has stopped its servers and removed its files by the time it
	// returns; nothing below can leave anything behind.
	rp, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rp.print(os.Stdout)
	line, err := json.Marshal(rp.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rp.failed > 0 {
		fmt.Fprintln(os.Stderr, "bench: correctness check failed:", rp.firstFailure)
		os.Exit(1)
	}
}

// run executes one benchmark invocation.
func run(cfg config) (*report, error) {
	sp, err := findSpec(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	sp = sp.scaled(cfg.scale)
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "ansmet-serve")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
	}
	// Everything the run writes lives under .bench_build in the checkout:
	// the server binary (kept between runs), and a per-run directory for
	// snapshots, journals and logs that is removed on the way out.
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, spec: sp, buildDir: buildDir, runDir: runDir, dur: time.Duration(cfg.seconds) * time.Second}
	defer r.cleanup()
	// An interrupt must not leave a server or a run directory behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	defer close(done)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			r.cleanup()
			os.Exit(1)
		case <-done:
		}
	}()

	if r.bin, err = buildServer(root, buildDir); err != nil {
		return nil, err
	}
	// From here on the generator, the set-ups and every server share one
	// CPU. Where the kernel refuses, the run goes on unpinned and says so.
	if r.cpu, err = pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: not pinned to one CPU:", err)
		r.cpu = -1
	}
	writes := 0
	if sp.mixed {
		writes = writesPerSecond * cfg.seconds
	}
	if r.data, err = generate(sp, cfg.seed, writes); err != nil {
		return nil, err
	}
	if sp.mixed {
		if r.writer, err = newWriter(r.data, writes); err != nil {
			return nil, err
		}
	}
	e2e, layers, err := r.measure()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.tracedRun(layers); err != nil {
			return nil, err
		}
	}

	return &report{cfg: cfg, cpu: r.cpu, writes: writes, searchSamples: r.searchSamples, writeSamples: r.writeSamples,
		repetitions: r.repetitions, fullSetupS: r.fullSetupS, windowRates: r.windowRates,
		endToEnd: e2e, perLayer: layers, attempted: r.tally.attempted, failed: r.tally.failed, shed: r.tally.shed, short: r.tally.short,
		firstFailure: r.tally.firstErr}, nil
}

// print writes the human-readable report: the seed and the environment the
// numbers were taken in, the load, the sample counts, and every metric by
// name with its unit. Both sets are printed for the reader; the JSON line
// carries the one the driver asked for.
func (rp *report) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %v\n", rp.cfg.workload, rp.cfg.seed, rp.cfg.seconds, rp.cfg.trace)
	fmt.Fprintf(out, "env nproc %d pinned to cpu %d GOMAXPROCS %d kernel %s %s\n",
		runtime.NumCPU(), rp.cpu, runtime.GOMAXPROCS(0), vecmath.Active().Name, runtime.Version())
	fmt.Fprintf(out, "load 1 closed-loop search connection")
	if rp.writes > 0 {
		fmt.Fprintf(out, ", 1 open-loop writer at %d writes/s (%d writes)", writesPerSecond, rp.writes)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "set-up of the whole population %.3f s (setup_s times 1/%d of it)\n", rp.fullSetupS, setupSlice)
	fmt.Fprintf(out, "samples search %d (every timed query at least %d times) write %d; attempted %d failed %d shed %d short answers %d\n",
		rp.searchSamples, rp.repetitions, rp.writeSamples, rp.attempted, rp.failed, rp.shed, rp.short)
	fmt.Fprintf(out, "search rates of the %d windows of %v, for the machine's unsteadiness: %.0f req/s\n",
		numWindows, time.Duration(rp.cfg.seconds)*time.Second/numWindows, rp.windowRates)
	if rp.firstFailure != "" {
		fmt.Fprintf(out, "first failure: %s\n", rp.firstFailure)
	}
	printMetrics(out, rp.endToEnd)
	if rp.cfg.trace {
		printMetrics(out, rp.perLayer)
	}
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-40s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// runner holds one invocation's state.
type runner struct {
	cfg      config
	spec     spec
	buildDir string
	runDir   string
	bin      string
	cpu      int
	dur      time.Duration
	data     *data
	writer   *writer
	tally    tally

	mu      sync.Mutex
	servers []*server // every child started, for cleanup; guarded by mu

	searchSamples, writeSamples int
	repetitions                 int
	fullSetupS                  float64
	windowRates                 []float64

	// Kept from the set-up of the whole population for the traced run's metrics.
	buildS, saveS float64
	snapshot      string // the served snapshot; the traced run loads it too
	built         *ansmet.Database
}

func (r *runner) cleanup() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.servers {
		s.kill()
	}
	os.RemoveAll(r.runDir)
}

func (r *runner) start(snapshot, name string) (*server, error) {
	s, err := startServer(r.bin, snapshot, filepath.Join(r.runDir, name+".log"))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.servers = append(r.servers, s)
	r.mu.Unlock()
	return s, nil
}

// setup is one timed set-up over base: ansmet.New + SaveFile + server start
// to the first /v1/ready 200. It returns the running server.
func (r *runner) setup(name string, base [][]float32) (*server, float64, error) {
	dir := filepath.Join(r.runDir, name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	db, err := ansmet.New(base, r.data.options())
	if err != nil {
		return nil, 0, fmt.Errorf("building index: %w", err)
	}
	t1 := time.Now()
	r.snapshot = filepath.Join(dir, "index.db")
	if err := db.SaveFile(r.snapshot); err != nil {
		return nil, 0, fmt.Errorf("saving snapshot: %w", err)
	}
	t2 := time.Now()
	srv, err := r.start(r.snapshot, name)
	if err != nil {
		return nil, 0, err
	}
	total := time.Since(t0).Seconds()
	r.buildS, r.saveS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	r.built = db
	return srv, total, nil
}

// measure is the socket-level run: set-ups, warm-up, the fixed recall pass,
// the measured seconds with every answer checked, and on the mixed
// workload the kill/recover check. It returns the end-to-end metrics and
// the per-layer metrics the socket-level run alone can give.
func (r *runner) measure() (e2e, layers map[string]metric, err error) {
	d, sp, t := r.data, r.spec, &r.tally
	repeats := setupRepeats
	if r.cfg.trace {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		srv, s, err := r.setup(fmt.Sprintf("slice-%d", i), d.base[:len(d.base)/setupSlice])
		if err != nil {
			return nil, nil, err
		}
		srv.kill()
		setups = append(setups, s)
	}
	// The last set-up leaves the snapshot, the database and the build and
	// save times the rest of the run uses.
	srv, full, err := r.setup("full", d.base)
	if err != nil {
		return nil, nil, err
	}
	r.fullSetupS = full
	if !r.cfg.trace {
		r.built = nil // only the traced run probes the built database
	}
	runtime.GC()

	c := newClient(srv.url)
	defer c.close()
	// Every distinct query once, in order, on one connection, before
	// anything is timed: the warm-up (pools, page cache, the connection)
	// and, on a read-only server, also the recall measurement and the
	// reference — such a server is deterministic, so every measured answer
	// must repeat this pass id for id. The mixed workload's recall pass
	// comes after the churn instead.
	ref, err := c.fixedPass(d.bodies)
	if err != nil {
		return nil, nil, err
	}
	check := r.checkMixed
	if !sp.mixed {
		check = func(qi int, _ time.Duration, res []serve.SearchResult) error {
			if !slices.Equal(idsOf(res), ref[qi]) {
				return fmt.Errorf("answer differs from the fixed pass: %v vs %v", idsOf(res), ref[qi])
			}
			return nil
		}
	}
	nq := sp.timed
	m, err := runLoad(c, srv, d.bodies[:nq], r.dur, check, r.writer, t)
	if err != nil {
		return nil, nil, err
	}
	r.searchSamples, r.writeSamples = len(m.searchLat), len(m.writeLat)
	if len(m.searchLat) == 0 {
		return nil, nil, fmt.Errorf("no successful search in the measured seconds: %s", t.firstErr)
	}
	// A floor needs something to choose from: two full passes give every
	// distinct query a latency twice and a step from its predecessor once.
	if r.repetitions = minRepetitions(m.searchQuery, nq); r.repetitions < 2 {
		return nil, nil, fmt.Errorf("%d searches in %v do not cover the %d timed queries twice", len(m.searchLat), r.dur, nq)
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}

	truth := d.truth
	stored := sp.n
	if sp.mixed {
		// Recall after churn: against brute force over what is live now.
		all := append(append([][]float32(nil), d.base...), d.inserts[:len(m.inserted)]...)
		dead := make(map[uint32]bool, len(m.deleted))
		for _, id := range m.deleted {
			dead[id] = true
		}
		truth = bruteForce(d.prof, d.queries, all, func(id uint32) bool { return dead[id] })
		stored += len(m.inserted)
		if ref, err = c.fixedPass(d.bodies); err != nil {
			return nil, nil, err
		}
		for qi, ids := range ref {
			for _, id := range ids {
				if dead[id] {
					t.violation("query %d returned deleted id %d after the window", qi, id)
				}
			}
		}
	}
	recall := recallOf(ref, truth)
	if recall < sp.recallFloor {
		t.violation("recall@%d %.4f below the workload's floor %.4f", topK, recall, sp.recallFloor)
	}
	disk, err := fileSizes(r.snapshot, ansmet.WALName(r.snapshot))
	if err != nil {
		return nil, nil, err
	}
	srv.kill()

	recoveryS := 0.0
	if sp.mixed {
		if recoveryS, err = r.checkRecovery(ref, m); err != nil {
			return nil, nil, err
		}
	}

	// Every gated timing is built from per-query floors: the fastest of each
	// distinct query's repetitions (stats.go, floorPerQuery).
	latFloor := floorPerQuery(m.searchQuery, m.searchLat, nq, time.Millisecond)
	stepFloor := floorPerQuery(m.searchQuery, m.searchStep, nq, time.Second)
	cpuFloor := floorPerQuery(m.searchQuery, m.searchCPU, nq, time.Millisecond)
	searchMs := inUnits(m.searchLat, time.Millisecond)
	writeMs := inUnits(m.writeLat, time.Millisecond)
	width := r.dur / numWindows
	r.windowRates = nil
	for _, w := range byWindow(searchMs, m.searchDone, numWindows, width) {
		r.windowRates = append(r.windowRates, float64(len(w))/width.Seconds())
	}
	e2e = map[string]metric{
		"setup_s":                    {slices.Min(setups), "s"},
		"search_qps":                 {1 / mean(stepFloor), "req/s"},
		"search_p50_ms":              {percentile(latFloor, 0.50), "ms"},
		"cpu_ms_per_request":         {mean(cpuFloor), "ms"},
		"recall_at_10":               {recall, "ratio"},
		"disk_bytes_per_vector_byte": {float64(disk) / float64(d.rawVectorBytes(stored)), "ratio"},
	}
	layers = map[string]metric{
		"serve.search_p90_ms":      {percentile(searchMs, 0.90), "ms"},
		"serve.search_p99_ms":      {percentile(searchMs, 0.99), "ms"},
		"serve.search_p999_ms":     {percentile(searchMs, 0.999), "ms"},
		"serve.search_mean_ms":     {mean(searchMs), "ms"},
		"serve.search_samples":     {float64(len(searchMs)), "count"},
		"serve.search_repetitions": {float64(r.repetitions), "count"},
		"serve.write_p50_ms":       {percentile(writeMs, 0.50), "ms"},
		"serve.write_p99_ms":       {percentile(writeMs, 0.99), "ms"},
		"serve.write_late_p99_ms":  {percentile(inUnits(m.writeLate, time.Millisecond), 0.99), "ms"},
		"serve.write_samples":      {float64(len(writeMs)), "count"},
		"serve.shed_share":         {float64(t.shed) / float64(t.attempted), "ratio"},
		"serve.short_answer_share": {float64(t.short) / float64(t.attempted), "ratio"},
		"ansmet.build_s":           {r.buildS, "s"},
		"ansmet.save_s":            {r.saveS, "s"},
		"ansmet.snapshot_bytes":    {float64(disk), "bytes"},
		"ansmet.rss_mb":            {rss, "MB"},
		"ansmet.recovery_s":        {recoveryS, "s"},
	}
	return e2e, layers, nil
}

// checkMixed validates an answer given while the writer runs: sorted by
// distance and free of ids whose delete was acknowledged before the search
// was sent. A short answer is counted, not failed (see tally.shortAnswer).
func (r *runner) checkMixed(qi int, sent time.Duration, res []serve.SearchResult) error {
	if len(res) > topK {
		return fmt.Errorf("%d results, want %d", len(res), topK)
	}
	if len(res) < topK {
		r.tally.shortAnswer()
	}
	for i, nb := range res {
		if i > 0 && nb.Dist < res[i-1].Dist {
			return fmt.Errorf("results not sorted by distance")
		}
		if r.writer.deletedBefore(nb.ID, sent) {
			return fmt.Errorf("returned id %d after its delete was acknowledged", nb.ID)
		}
	}
	return nil
}

// recoverySample bounds how many inserts and deletes the recovery check
// probes with an exact query each.
const recoverySample = 40

// checkRecovery restarts the SIGKILLed server from the same snapshot and
// journal and judges durability from its answers alone: the fixed pass
// must repeat the pre-kill ids, a sample of acknowledged inserts must come
// back at distance 0 for their own vector, and a sample of acknowledged
// deletes must not come back for theirs. It returns the restart time.
func (r *runner) checkRecovery(before [][]uint32, m *measured) (float64, error) {
	d, t := r.data, &r.tally
	t0 := time.Now()
	srv, err := r.start(r.snapshot, "recovered")
	if err != nil {
		return 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	recoveryS := time.Since(t0).Seconds()
	defer srv.kill()
	c := newClient(srv.url)
	defer c.close()
	after, err := c.fixedPass(d.bodies)
	if err != nil {
		return 0, err
	}
	for qi := range before {
		if !slices.Equal(before[qi], after[qi]) {
			t.violation("query %d answers %v after recovery, %v before the kill", qi, after[qi], before[qi])
		}
	}
	exact := func(v []float32) ([]serve.SearchResult, error) {
		body, err := json.Marshal(serve.SearchRequest{Query: v, K: topK, RecallTarget: 1})
		if err != nil {
			return nil, err
		}
		res, status, err := c.search(body)
		if err != nil || status != 200 {
			return nil, fmt.Errorf("recovery probe: status %d: %v", status, err)
		}
		return res, nil
	}
	for _, j := range sampleIndexes(len(m.inserted), recoverySample) {
		res, err := exact(d.inserts[j])
		if err != nil {
			return 0, err
		}
		found := false
		for _, nb := range res {
			found = found || (nb.ID == m.inserted[j] && nb.Dist == 0)
		}
		if !found {
			t.violation("acknowledged insert %d is not at distance 0 of its own vector after recovery", m.inserted[j])
		}
	}
	for _, j := range sampleIndexes(len(m.deleted), recoverySample) {
		res, err := exact(d.base[m.deleted[j]])
		if err != nil {
			return 0, err
		}
		for _, nb := range res {
			if nb.ID == m.deleted[j] {
				t.violation("acknowledged delete %d came back after recovery", nb.ID)
			}
		}
	}
	return recoveryS, nil
}

// sampleIndexes spreads up to k indexes evenly over [0, n).
func sampleIndexes(n, k int) []int {
	if n < k {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// fileSizes sums the sizes of the files that exist.
func fileSizes(paths ...string) (int64, error) {
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
