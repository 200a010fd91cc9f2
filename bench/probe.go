package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"ansmet"
	"ansmet/internal/bitplane"
	"ansmet/internal/cluster"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/serve"
	"ansmet/internal/trace"
	"ansmet/internal/wal"
)

// The traced run: in-process, one goroutine, every distinct query once. The
// benchmark mounts serve.New(cfg).Handler() on a loopback listener with
// timing wrappers it owns around each layer's public entry, and replays the
// search itself through those entries so the time inside ansmet splits
// into hnsw traversal and core compares. Nothing in the program is
// instrumented; every span is opened and closed in this file.

const (
	// traceHeader carries "<trace>:<parent span id>" from the traced client
	// to the handler wrapper.
	traceHeader = "X-Bench-Trace"
	// defaultEf is the beam width of the baseline arms on a workload whose
	// requests carry none (the tiered one).
	defaultEf = 128
	// traceWrites is how many writes the mixed workload's traced run sends.
	traceWrites = 250
	// probeVectors is the population of the standalone kernel probes.
	probeVectors = 2048
	// clusterShards and clusterVectors shape the scatter-gather probe.
	clusterShards  = 4
	clusterVectors = 20000
)

// absentLayerUnits lists the metrics of layers that only some workloads'
// requests enter, with their units. The traced run reports each as 0 unless
// the probe that measures it ran: every traced invocation must print every
// per-layer metric.
var absentLayerUnits = map[string]string{
	"core.lines_per_compare": "count", "core.et_reject_share": "ratio",
	"core.tiered_pool": "count", "core.tiered_bound_lines_per_vector": "count", "core.tiered_rerank_lines": "count",
	"ansmet.add_us": "us", "ansmet.add_nojournal_us": "us", "ansmet.delete_us": "us",
	"ansmet.maintain_ms": "ms", "ansmet.tombstones": "count",
	"wal.append_us": "us", "wal.bytes_per_write": "bytes", "wal.write_amplification": "ratio", "wal.replay_records_per_s": "1/s",
	"cluster.fanout_self_us": "us", "cluster.shard_max_us": "us", "cluster.shard_sum_us": "us",
	"cluster.hedges": "count", "cluster.allocs_per_search": "count", "hnsw.merge_topk_us": "us",
}

type spanKey struct{}

// spanRef names the span new child spans hang under.
type spanRef struct{ trace, id int }

func refFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// child opens a span under the one ctx names and returns what closes it; a
// ctx that names none (an unrecorded warm-up call) records nothing.
func (p *prober) child(ctx context.Context, name string) func() {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return func() {}
	}
	id := p.rec.begin(ref.trace, ref.id, name)
	return func() { p.rec.end(id) }
}

// timedEngine wraps a distance engine, timing and counting every Compare:
// the hnsw / core split of a search.
type timedEngine struct {
	engine.Engine
	ns                       time.Duration
	count, lines, earlyTerms int64
}

func (t *timedEngine) Compare(id uint32, threshold float64) engine.Result {
	s := time.Now()
	r := t.Engine.Compare(id, threshold)
	t.ns += time.Since(s)
	t.count++
	t.lines += int64(r.TotalLines())
	if !r.Accepted && r.Lines < t.Engine.LinesPerVector() {
		t.earlyTerms++
	}
	return r
}

// prober holds the traced run's state.
type prober struct {
	r    *runner
	d    *data
	db   *ansmet.Database
	sys  *core.System
	rec  *recorder
	ef   int
	live func(uint32) bool // tombstone filter of a mutable database

	eng    timedEngine
	tiered *core.ETEngine
	qq     []float32
	dst    []hnsw.Neighbor

	// Totals over the traced search pass.
	compares, lines, earlyTerms int64
	tieredStats                 []core.TieredStats
}

// tracedRun adds the per-layer metrics the in-process passes give to layers.
func (r *runner) tracedRun(layers map[string]metric) error {
	d := r.data
	dir := filepath.Join(r.runDir, "trace")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	// The served snapshot has the measured window's journal beside it; the
	// traced run starts from a fresh copy of the freshly built index.
	path := filepath.Join(dir, "index.db")
	if err := r.built.SaveFile(path); err != nil {
		return fmt.Errorf("saving snapshot for the traced run: %w", err)
	}
	t0 := time.Now()
	db, err := ansmet.LoadFile(path, nil)
	if err != nil {
		return fmt.Errorf("loading snapshot for the traced run: %w", err)
	}
	layers["ansmet.load_s"] = metric{time.Since(t0).Seconds(), "s"}
	defer db.Close()

	p := &prober{r: r, d: d, db: db, sys: db.System(), rec: newRecorder(), ef: d.spec.ef,
		qq: make([]float32, d.prof.Dim)}
	if p.ef == 0 {
		p.ef = defaultEf
	}
	if db.Mutable() {
		p.live = func(id uint32) bool { return !db.Deleted(id) }
	}
	p.eng.Engine = p.sys.NewWorkerEngine()
	if d.spec.tiered {
		p.tiered = p.sys.Store.NewETEngine(d.prof.Metric)
	}

	for name, unit := range absentLayerUnits {
		layers[name] = metric{0, unit}
	}
	want, err := p.directPass(layers)
	if err != nil {
		return err
	}
	if err := p.requestPasses(layers, want); err != nil {
		return err
	}
	p.countingPass(layers)
	p.baselines(layers)
	p.kernelProbes(layers)
	if err := p.writeProbes(layers, dir); err != nil {
		return err
	}
	if err := p.clusterProbe(layers); err != nil {
		return err
	}

	spans := p.rec.spans
	self := selfTimes(spans)
	un := unattributedShare(spans, self, "request")
	if un > 0.05 {
		r.tally.violation("traced self times are %.1f%% off the root spans", un*100)
	}
	layers["trace.unattributed_share"] = metric{un, "ratio"}
	layers["trace.spans"] = metric{float64(len(spans)), "count"}
	spanDir := filepath.Join(r.buildDir, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", d.spec.name, d.seed)), spans)
}

// search is the workload's route called straight on the library.
func (p *prober) search(q []float32) ([]hnsw.Neighbor, error) {
	var err error
	if p.d.spec.tiered {
		p.dst, _, err = p.db.TieredSearchInto(q, topK, 1, p.dst)
	} else {
		p.dst, err = p.db.SearchInto(q, topK, p.ef, p.dst)
	}
	return p.dst, err
}

// directPass times the uninstrumented library call per query (after one
// warm-up pass) and returns each query's ids: the answers the replica
// below must reproduce.
func (p *prober) directPass(layers map[string]metric) ([][]uint32, error) {
	nq := len(p.d.queries)
	want := make([][]uint32, nq)
	lat := make([]time.Duration, nq)
	var before, after runtime.MemStats
	for pass := 0; pass < 2; pass++ {
		runtime.ReadMemStats(&before)
		for qi, q := range p.d.queries {
			t0 := time.Now()
			nn, err := p.search(q)
			lat[qi] = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("direct search %d: %w", qi, err)
			}
			want[qi] = neighborIDs(nn)
		}
		runtime.ReadMemStats(&after)
	}
	layers["ansmet.search_us"] = metric{median(inUnits(lat, time.Microsecond)), "us"}
	layers["ansmet.allocs_per_search"] = metric{float64(after.Mallocs-before.Mallocs) / float64(nq), "count"}
	return want, nil
}

func neighborIDs(nn []hnsw.Neighbor) []uint32 {
	ids := make([]uint32, len(nn))
	for i, n := range nn {
		ids[i] = n.ID
	}
	return ids
}

func (p *prober) quantize(q []float32) []float32 {
	for i, x := range q {
		p.qq[i] = p.d.prof.Elem.Quantize(x)
	}
	return p.qq
}

// replicaBeam is Database.SearchCtxInto rebuilt from the layers' public
// entries, with a span around each.
func (p *prober) replicaBeam(ctx context.Context, q []float32, k, ef int) ([]hnsw.Neighbor, error) {
	ref := refFrom(ctx)
	top := p.rec.begin(ref.trace, ref.id, "ansmet.search")
	defer p.rec.end(top)
	qs := p.rec.begin(ref.trace, top, "ansmet.quantize")
	qq := p.quantize(q)
	p.rec.end(qs)

	e := &p.eng
	e.ns, e.count, e.lines, e.earlyTerms = 0, 0, 0, 0
	hs := p.rec.begin(ref.trace, top, "hnsw.search")
	out := p.sys.Index.SearchFilteredInto(qq, k, ef, p.sys.Cfg.BeamBatch, p.live, e, nil, nil)
	p.rec.end(hs)
	p.rec.aggregate(ref.trace, hs, "core.compare", e.ns, e.count, e.lines)
	p.compares += e.count
	p.lines += e.lines
	p.earlyTerms += e.earlyTerms
	return out, nil
}

// replicaTiered is Database.TieredSearchCtxInto at budget 1, likewise.
func (p *prober) replicaTiered(ctx context.Context, q []float32, k int) (serve.Outcome, error) {
	ref := refFrom(ctx)
	top := p.rec.begin(ref.trace, ref.id, "ansmet.search")
	defer p.rec.end(top)
	qs := p.rec.begin(ref.trace, top, "ansmet.quantize")
	qq := p.quantize(q)
	p.rec.end(qs)

	ts := p.rec.begin(ref.trace, top, "core.tiered")
	out, st := p.tiered.TieredKNNInto(nil, qq, k, core.TieredOpts{Budget: 1}, nil)
	p.rec.end(ts)
	p.tieredStats = append(p.tieredStats, st)
	p.lines += int64(st.BoundLines + st.RerankLines)
	return serve.Outcome{Neighbors: out, Route: ansmet.RouteTiered.String()}, nil
}

// serveConfig wires the hooks the way cmd/ansmet-serve does; wrapped
// swaps in the replicas and the timed write hooks.
func (p *prober) serveConfig(wrapped bool) serve.Config {
	db := p.db
	cfg := serve.Config{
		BadRequest: func(err error) bool { return ansmet.IsInvalidInput(err) || ansmet.IsMutationError(err) },
		Search: func(ctx context.Context, q []float32, k, ef int) ([]ansmet.Neighbor, error) {
			return db.SearchEfCtx(ctx, q, k, ef)
		},
		SearchPrecision: func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (serve.Outcome, error) {
			nn, _, err := db.TieredSearchCtxInto(ctx, q, k, rt, nil)
			return serve.Outcome{Neighbors: nn, Route: ansmet.RouteTiered.String()}, err
		},
	}
	if db.Mutable() {
		cfg.Upsert = func(ctx context.Context, id uint32, hasID bool, vec []float32) (uint32, error) {
			if hasID {
				return db.Update(id, vec)
			}
			return db.Add(vec)
		}
		cfg.Delete = func(ctx context.Context, id uint32) error { return db.Delete(id) }
	}
	if !wrapped {
		return cfg
	}
	cfg.Search = p.replicaBeam
	if p.tiered != nil {
		cfg.SearchPrecision = func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (serve.Outcome, error) {
			return p.replicaTiered(ctx, q, k)
		}
	}
	if upsert, del := cfg.Upsert, cfg.Delete; upsert != nil {
		cfg.Upsert = func(ctx context.Context, id uint32, hasID bool, vec []float32) (uint32, error) {
			defer p.child(ctx, "ansmet.upsert")()
			return upsert(ctx, id, hasID, vec)
		}
		cfg.Delete = func(ctx context.Context, id uint32) error {
			defer p.child(ctx, "ansmet.delete")()
			return del(ctx, id)
		}
	}
	return cfg
}

// mounted is serve.New(cfg).Handler() on a loopback listener.
type mounted struct {
	url string
	srv *http.Server
}

// mount serves the plain or the wrapped hooks; wrapped also puts the
// handler span around the serve layer.
func (p *prober) mount(wrapped bool) (*mounted, error) {
	sv, err := serve.New(p.serveConfig(wrapped))
	if err != nil {
		return nil, err
	}
	h := sv.Handler()
	if wrapped {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			traceID, parent, _ := strings.Cut(req.Header.Get(traceHeader), ":")
			tr, _ := strconv.Atoi(traceID)
			par, _ := strconv.Atoi(parent)
			s := p.rec.begin(tr, par, "serve.handler")
			defer p.rec.end(s)
			ctx := context.WithValue(req.Context(), spanKey{}, spanRef{trace: tr, id: s})
			inner.ServeHTTP(w, req.WithContext(ctx))
		})
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &mounted{url: "http://" + l.Addr().String(), srv: &http.Server{Handler: h}}
	go m.srv.Serve(l)
	return m, nil
}

// tracedPost sends one request; with rec set it opens the "request" root
// span and names it in the trace header. It returns the response body.
func tracedPost(c *http.Client, rec *recorder, tr int, url string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	root := 0
	if rec != nil {
		root = rec.begin(tr, 0, "request")
		req.Header.Set(traceHeader, fmt.Sprintf("%d:%d", tr, root))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rec != nil {
		rec.end(root)
	}
	dur := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, dur, nil
}

// requestPasses sends every distinct query once through the plain hooks
// and once through the wrapped ones, on one connection each.
func (p *prober) requestPasses(layers map[string]metric, want [][]uint32) error {
	// Both servers are up at once and each query goes to one, then the
	// other, so that a change in the machine's speed during the pass lands
	// on both sides of trace.overhead_ratio alike.
	plainSrv, err := p.mount(false)
	if err != nil {
		return err
	}
	defer plainSrv.srv.Close()
	wrappedSrv, err := p.mount(true)
	if err != nil {
		return err
	}
	defer wrappedSrv.srv.Close()
	c := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer c.CloseIdleConnections()
	var plain, wrapped []time.Duration
	reqBytes, respBytes := 0, 0
	for qi, body := range p.d.bodies {
		_, dur, err := tracedPost(c, nil, qi, plainSrv.url+"/v1/search", body)
		if err != nil {
			return fmt.Errorf("plain request pass: %w", err)
		}
		plain = append(plain, dur)
		b, dur, err := tracedPost(c, p.rec, qi, wrappedSrv.url+"/v1/search", body)
		if err != nil {
			return fmt.Errorf("traced request pass: %w", err)
		}
		wrapped = append(wrapped, dur)
		reqBytes += len(body)
		respBytes += len(b)
		var sr serve.SearchResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			return fmt.Errorf("traced request pass: %w", err)
		}
		if got := idsOf(sr.Results); !slices.Equal(got, want[qi]) {
			p.r.tally.violation("traced replica answers query %d with %v, Database.SearchInto with %v", qi, got, want[qi])
		}
	}

	spans := p.rec.spans
	self := selfTimes(spans)
	nq := float64(len(p.d.bodies))
	med := func(name string) float64 { return median(selfByName(spans, self, name)) }
	layers["serve.transport_us"] = metric{med("request"), "us"}
	layers["serve.handler_self_us"] = metric{med("serve.handler"), "us"}
	layers["serve.request_bytes"] = metric{float64(reqBytes) / nq, "bytes"}
	layers["serve.response_bytes"] = metric{float64(respBytes) / nq, "bytes"}
	layers["ansmet.quantize_us"] = metric{med("ansmet.quantize"), "us"}
	layers["hnsw.traverse_self_us"] = metric{med("hnsw.search"), "us"}
	layers["hnsw.compares_per_query"] = metric{float64(p.compares) / nq, "count"}
	layers["trace.overhead_ratio"] = metric{median(inUnits(wrapped, time.Microsecond)) / median(inUnits(plain, time.Microsecond)), "ratio"}

	var cmpUs, cmpNs, lineNs []float64
	for _, s := range spans {
		if s.Name == "core.compare" && s.Count > 0 {
			cmpUs = append(cmpUs, float64(s.DurNs)/1e3)
			cmpNs = append(cmpNs, float64(s.DurNs)/float64(s.Count))
			lineNs = append(lineNs, float64(s.DurNs)/float64(s.Lines))
		}
	}
	lpv := float64(p.eng.LinesPerVector())
	layers["core.compare_us_per_query"] = metric{median(cmpUs), "us"}
	layers["core.compare_ns"] = metric{median(cmpNs), "ns"}
	layers["core.ns_per_line"] = metric{median(lineNs), "ns"}
	layers["core.lines_per_query"] = metric{float64(p.lines) / nq, "count"}
	scanned := float64(p.compares) // vectors whose lines could have been fetched
	if p.compares > 0 {
		layers["core.lines_per_compare"] = metric{float64(p.lines) / float64(p.compares), "count"}
		layers["core.et_reject_share"] = metric{float64(p.earlyTerms) / float64(p.compares), "ratio"}
	}

	var pool, bound, rerank float64
	for _, st := range p.tieredStats {
		pool += float64(st.Pool)
		bound += float64(st.BoundLines)
		rerank += float64(st.RerankLines)
	}
	layers["core.tiered_us"] = metric{med("core.tiered"), "us"}
	if nt := float64(len(p.tieredStats)); nt > 0 {
		layers["core.tiered_pool"] = metric{pool / nt, "count"}
		layers["core.tiered_bound_lines_per_vector"] = metric{bound / nt / float64(p.db.Len()), "count"}
		layers["core.tiered_rerank_lines"] = metric{rerank / nt, "count"}
		scanned = nt * float64(p.db.Len())
	}
	layers["core.fetched_line_share"] = metric{float64(p.lines) / (scanned * lpv), "ratio"}
	return nil
}

// countingPass reruns the beam with the library's own hop recorder, for the
// traversal counts a timing wrapper cannot see.
func (p *prober) countingPass(layers map[string]metric) {
	hops := 0
	if !p.d.spec.tiered {
		for _, q := range p.d.queries {
			var rec trace.Query
			p.sys.Index.SearchFilteredInto(p.quantize(q), topK, p.ef, p.sys.Cfg.BeamBatch, p.live, p.eng.Engine, &rec, nil)
			hops += rec.NumHops()
		}
	}
	layers["hnsw.hops_per_query"] = metric{float64(hops) / float64(len(p.d.queries)), "count"}
}

// storedVectors are the quantized vectors the database holds, row-major.
func (p *prober) storedVectors() [][]float32 {
	vecs := make([][]float32, p.db.Len())
	for id := range vecs {
		vecs[id], _ = p.db.Vector(uint32(id))
	}
	return vecs
}

// baselines times the honest-baseline arms on the same data: the textbook
// HNSW beam (batch 1) over the same graph with the exact engine — row-major
// vectors, the active SIMD kernel — and brute force.
func (p *prober) baselines(layers map[string]metric) {
	d := p.d
	vecs := p.storedVectors()
	exact := engine.NewExact(vecs, d.prof.Metric, d.prof.Elem)
	nq := len(d.queries)
	lat := make([]time.Duration, nq)
	got := make([][]uint32, nq)
	var dst []hnsw.Neighbor
	for pass := 0; pass < 2; pass++ {
		for qi, q := range d.queries {
			t0 := time.Now()
			dst = p.sys.Index.SearchFilteredInto(p.quantize(q), topK, p.ef, 1, p.live, exact, nil, dst)
			lat[qi] = time.Since(t0)
			got[qi] = neighborIDs(dst)
		}
	}
	exactUs := median(inUnits(lat, time.Microsecond))
	layers["baseline.hnsw_exact_us"] = metric{exactUs, "us"}
	layers["baseline.hnsw_exact_recall_at_10"] = metric{recallOf(got, d.truth), "ratio"}
	layers["baseline.default_over_exact_ratio"] = metric{layers["ansmet.search_us"].Value / exactUs, "ratio"}

	var best []dataset.Neighbor
	for qi, q := range d.queries {
		t0 := time.Now()
		best = bruteForceOne(d.prof, p.quantize(q), vecs, nil, best[:0])
		lat[qi] = time.Since(t0)
	}
	layers["baseline.bruteforce_us"] = metric{median(inUnits(lat, time.Microsecond)), "us"}
}

// kernelProbes times the two kernels under core standalone, on this
// workload's vectors: Bounder.RunET over the plain schedule with threshold
// +Inf (every line consumed), and the active distance kernel at this dim.
func (p *prober) kernelProbes(layers map[string]metric) {
	d := p.d
	vecs := d.base
	if len(vecs) > probeVectors {
		vecs = vecs[:probeVectors]
	}
	const reps = 5
	lay := bitplane.MustLayout(d.prof.Elem, d.prof.Dim, bitplane.PlainSchedule(d.prof.Elem))
	enc := make([][]byte, len(vecs))
	var codes []uint32
	for i, v := range vecs {
		codes = d.prof.Elem.EncodeVector(v, codes[:0])
		enc[i] = make([]byte, lay.VectorBytes())
		lay.Transform(codes, enc[i])
	}
	b := bitplane.NewBounder(lay, d.prof.Metric, 0)
	b.ResetQuery(d.queries[0])
	var perLine []float64
	for rep := 0; rep < reps; rep++ {
		lines := 0
		t0 := time.Now()
		for _, e := range enc {
			b.Reset()
			_, n := b.RunET(e, math.Inf(1))
			lines += n
		}
		perLine = append(perLine, float64(time.Since(t0).Nanoseconds())/float64(lines))
	}
	layers["bitplane.consume_ns_per_line"] = metric{median(perLine), "ns"}

	var perCall []float64
	sink := 0.0
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for _, v := range vecs {
			sink += d.prof.Metric.Distance(d.queries[0], v)
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(len(vecs)))
	}
	if math.IsNaN(sink) {
		panic("distance kernel returned NaN")
	}
	layers["vecmath.distance_ns"] = metric{median(perCall), "ns"}
}

// writeProbes measures the write path on the mixed workload: the journal
// alone, Add with and without it, Delete, and the deferred repair. Other
// workloads serve an immutable index and report zeros.
func (p *prober) writeProbes(layers map[string]metric, dir string) error {
	if !p.d.spec.mixed {
		return nil
	}
	d := p.d
	w := p.r.writer
	nw := traceWrites
	if nw > len(w.writes) {
		nw = len(w.writes)
	}

	// The journal alone: records shaped like an add (id + quantized vector).
	jpath := filepath.Join(dir, "probe.wal")
	log, err := wal.Open(jpath, 0, nil)
	if err != nil {
		return err
	}
	payload := make([]byte, 4+4*d.prof.Dim)
	lat := make([]time.Duration, nw)
	for j := range lat {
		v := d.inserts[j%len(d.inserts)]
		binary.LittleEndian.PutUint32(payload, uint32(j))
		for i, x := range v {
			binary.LittleEndian.PutUint32(payload[4+4*i:], math.Float32bits(x))
		}
		t0 := time.Now()
		if _, err := log.Append(1, payload); err != nil {
			log.Close()
			return err
		}
		lat[j] = time.Since(t0)
	}
	if err := log.Close(); err != nil {
		return err
	}
	size, err := fileSizes(jpath)
	if err != nil {
		return err
	}
	replayed := 0
	t0 := time.Now()
	log, err = wal.Open(jpath, 0, func(wal.Record) error { replayed++; return nil })
	if err != nil {
		return err
	}
	replayS := time.Since(t0).Seconds()
	log.Close()
	if replayed != nw {
		p.r.tally.violation("journal replayed %d of %d appended records", replayed, nw)
	}
	layers["wal.append_us"] = metric{median(inUnits(lat, time.Microsecond)), "us"}
	layers["wal.bytes_per_write"] = metric{float64(size) / float64(nw), "bytes"}
	layers["wal.write_amplification"] = metric{float64(size) / float64(d.rawVectorBytes(nw)), "ratio"}
	layers["wal.replay_records_per_s"] = metric{float64(replayed) / replayS, "1/s"}

	// Add without a journal: the freshly built database never attached one.
	var noJournal []time.Duration
	for j := 0; j < nw-nw/deleteEvery; j++ {
		t0 := time.Now()
		if _, err := p.r.built.Add(d.inserts[j]); err != nil {
			return fmt.Errorf("un-journaled add: %w", err)
		}
		noJournal = append(noJournal, time.Since(t0))
	}
	layers["ansmet.add_nojournal_us"] = metric{median(inUnits(noJournal, time.Microsecond)), "us"}

	// The same write stream the socket-level run sends, through the wrapped
	// hooks of the in-process server.
	m, err := p.mount(true)
	if err != nil {
		return err
	}
	defer m.srv.Close()
	c := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer c.CloseIdleConnections()
	for j := 0; j < nw; j++ {
		path := "/v1/upsert"
		if w.writes[j].del {
			path = "/v1/delete"
		}
		if _, _, err := tracedPost(c, p.rec, len(d.queries)+j, m.url+path, w.writes[j].body); err != nil {
			return fmt.Errorf("traced write %d: %w", j, err)
		}
	}
	spans := p.rec.spans
	self := selfTimes(spans)
	layers["ansmet.add_us"] = metric{median(selfByName(spans, self, "ansmet.upsert")), "us"}
	layers["ansmet.delete_us"] = metric{median(selfByName(spans, self, "ansmet.delete")), "us"}
	t0 = time.Now()
	p.db.Maintain()
	layers["ansmet.maintain_ms"] = metric{float64(time.Since(t0).Microseconds()) / 1e3, "ms"}
	layers["ansmet.tombstones"] = metric{float64(p.db.Stats().Tombstones), "count"}
	return nil
}

// clusterProbe measures the scatter-gather layer, which no end-to-end
// workload reaches yet (a loaded shard cannot serve routed requests, see
// README.md "Known failures"): four hash shards over the first
// clusterVectors SIFT vectors behind cluster.New, each ShardFunc wrapped in
// a span. Only the workload whose data that is runs it; the others report
// zeros.
func (p *prober) clusterProbe(layers map[string]metric) error {
	d := p.d
	if d.spec.profile != "SIFT" || d.spec.mixed {
		return nil
	}
	vecs := d.base
	if len(vecs) > clusterVectors {
		vecs = vecs[:clusterVectors]
	}
	parts := make([][][]float32, clusterShards)
	ids := make([][]uint32, clusterShards)
	for id, v := range vecs {
		// Fibonacci hashing of the id: an even, seed-independent spread.
		s := int(uint32(id) * 2654435761 >> 30)
		parts[s] = append(parts[s], v)
		ids[s] = append(ids[s], uint32(id))
	}
	funcs := make([]cluster.ShardFunc, clusterShards)
	for s := range funcs {
		opts := d.options()
		db, err := ansmet.New(parts[s], opts)
		if err != nil {
			return fmt.Errorf("building shard %d: %w", s, err)
		}
		global := ids[s]
		funcs[s] = func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
			defer p.child(ctx, "cluster.shard")()
			out, err := db.SearchCtxInto(ctx, q, k, ef, dst)
			// Local ids ascend with global ids, so the canonical
			// (Dist, ID) order survives the remap.
			for i := range out {
				out[i].ID = global[out[i].ID]
			}
			return out, err
		}
	}
	coord, err := cluster.New(funcs, cluster.Config{})
	if err != nil {
		return err
	}
	truth := bruteForce(d.prof, d.queries, vecs, nil)
	nq := len(d.queries)
	got := make([][]uint32, nq)
	base := nq + traceWrites
	var dst []hnsw.Neighbor
	var before, after runtime.MemStats
	for pass := 0; pass < 2; pass++ {
		runtime.ReadMemStats(&before)
		for qi, q := range d.queries {
			ctx := context.Background()
			root := 0
			if pass == 1 {
				root = p.rec.begin(base+qi, 0, "cluster.fanout")
				ctx = context.WithValue(ctx, spanKey{}, spanRef{trace: base + qi, id: root})
			}
			res, err := coord.SearchInto(ctx, q, topK, p.ef, dst)
			if pass == 1 {
				p.rec.end(root)
			}
			if err != nil || res.Partial {
				return fmt.Errorf("cluster search %d: partial %v: %v", qi, res.Partial, err)
			}
			dst = res.Neighbors
			got[qi] = neighborIDs(dst)
		}
		runtime.ReadMemStats(&after)
	}
	if rc := recallOf(got, truth); rc < d.spec.recallFloor {
		p.r.tally.violation("sharded recall@%d %.4f below the floor %.4f", topK, rc, d.spec.recallFloor)
	}

	spans := p.rec.spans
	self := selfTimes(spans)
	shardMax := make(map[int]float64)
	shardSum := make(map[int]float64)
	for _, s := range spans {
		if s.Name == "cluster.shard" && s.Trace >= base {
			us := float64(s.DurNs) / 1e3
			shardSum[s.Trace] += us
			if us > shardMax[s.Trace] {
				shardMax[s.Trace] = us
			}
		}
	}
	layers["cluster.fanout_self_us"] = metric{median(selfByName(spans, self, "cluster.fanout")), "us"}
	layers["cluster.shard_max_us"] = metric{median(values(shardMax)), "us"}
	layers["cluster.shard_sum_us"] = metric{median(values(shardSum)), "us"}
	layers["cluster.hedges"] = metric{float64(coord.Metrics().Hedges.Load()), "count"}
	layers["cluster.allocs_per_search"] = metric{float64(after.Mallocs-before.Mallocs) / float64(nq), "count"}

	// The merge alone: the k-way merge of four sorted top-k lists.
	lists := make([][]hnsw.Neighbor, clusterShards)
	for s, f := range funcs {
		lists[s], _ = f(context.Background(), d.queries[0], topK, p.ef, nil)
	}
	const reps = 1000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		dst = hnsw.MergeTopK(dst, lists, topK)
	}
	layers["hnsw.merge_topk_us"] = metric{float64(time.Since(t0).Nanoseconds()) / reps / 1e3, "us"}
	return nil
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
