package ansmet

// The contract harness. One seeded op script (commitScript's writes with the
// harness's own steps interleaved), one brute-force model of the
// acknowledged history (contractModel), one observable-state comparator
// (sameDatabase), and every invariant checked after every step, on every
// route. DESIGN.md, "Key algorithmic invariants", keeps the ledger: each
// invariant, the arm that checks it, the suites it replaced.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/sim"
	"ansmet/internal/stats"
)

// The harness's steps, beyond commitScript's writes and its forced Maintain
// (kind 0); scriptOp.at parameterizes them.
const (
	stepDo       = recUpdate + 1 + iota // every route × context × Dst × Filter cell, on probe query at mod 20
	stepDoMany                          // DoMany ≡ serial Do: route at%5, Filter at/5%2, workers 1+at/10%4
	stepSave                            // Save → Load
	stepSaveFile                        // SaveFile → LoadFile
	stepCut                             // the journal cut at at‰ of its length, then LoadFile recovery
)

var stepNames = [...]string{"0", "recAdd", "recDelete", "recUpdate", "stepDo", "stepDoMany", "stepSave", "stepSaveFile", "stepCut"}

var oddIDs = func(id uint32) bool { return id%2 == 1 }

var allRoutes = []Route{RouteHost, RouteExact, RouteAuto}

// contractScript is commitScript's stream of writes — refused ones and the
// forced Maintain included, the stream TestJournalBytesUnchanged pins — with
// the harness's steps interleaved by a second generator: a Do and a DoMany
// after every fourth write, Save, SaveFile and a journal cut at the quarters,
// and SaveFile after the last write.
func contractScript(seed uint64, n, dim, writes int, elem ElemType) []scriptOp {
	rng := stats.NewRNG(seed ^ 0xc0417ac7)
	var out []scriptOp
	for i, w := range commitScript(seed, n, dim, writes, elem) {
		out = append(out, w)
		switch i {
		case writes / 4:
			out = append(out, scriptOp{kind: stepSave})
		case writes / 2:
			out = append(out, scriptOp{kind: stepSaveFile})
		case 3 * writes / 4:
			out = append(out, scriptOp{kind: stepCut, at: rng.Intn(1001)})
		}
		if i == writes-1 {
			out = append(out, scriptOp{kind: stepSaveFile})
		}
		switch i % 4 {
		case 1:
			out = append(out, scriptOp{kind: stepDo, at: rng.Intn(1000)})
		case 3:
			out = append(out, scriptOp{kind: stepDoMany, at: rng.Intn(40)})
		}
	}
	return out
}

// goLiteral prints a script as the Go literal the regression table takes.
func goLiteral(ops []scriptOp) string {
	var b strings.Builder
	b.WriteString("[]scriptOp{\n")
	for _, op := range ops {
		vec := strings.ReplaceAll(fmt.Sprintf("%#v", op.vec), "NaN", "float32(math.NaN())")
		fmt.Fprintf(&b, "\t{kind: %s, id: %d, vec: %s, at: %d},\n", stepNames[op.kind], op.id, vec, op.at)
	}
	return b.String() + "}"
}

// contractModel is the brute-force model of the acknowledged history: each
// id's row as its element type stores it, and the deleted ids. A write
// copies what it changes, so an old model stays valid.
type contractModel struct {
	metric  Metric
	elem    ElemType
	mutable bool
	rows    [][]float32
	dead    []bool
}

func newContractModel(vectors [][]float32, opts Options) contractModel {
	m := contractModel{metric: opts.Metric, elem: opts.Elem, mutable: opts.Mutable}
	for _, v := range vectors {
		m.rows, m.dead = append(m.rows, m.stored(v)), append(m.dead, false)
	}
	return m
}

// stored is v as a row of the model's element type holds it.
func (m contractModel) stored(v []float32) []float32 {
	out := make([]float32, len(v))
	for d, x := range v {
		out[d] = m.elem.Quantize(x)
	}
	return out
}

// write applies op when the database must acknowledge it and otherwise
// returns the error the database must refuse it with — checked in the order
// Add, Delete and Update check: the vector, mutability, the id.
func (m *contractModel) write(op scriptOp) error {
	if op.kind != recDelete {
		if len(op.vec) != len(m.rows[0]) {
			return ErrDimension
		}
		if slices.ContainsFunc(op.vec, func(x float32) bool { return math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) }) {
			return ErrBadVector
		}
	}
	if !m.mutable {
		return ErrNotMutable
	}
	if op.kind != recAdd {
		if int(op.id) >= len(m.rows) {
			return ErrUnknownID
		}
		if m.dead[op.id] {
			return ErrAlreadyDeleted
		}
	}
	m.dead = slices.Clone(m.dead)
	if op.kind != recDelete {
		m.rows, m.dead = append(m.rows, m.stored(op.vec)), append(m.dead, false)
	}
	if op.kind != recAdd {
		m.dead[op.id] = true
	}
	return nil
}

// live counts the undeleted ids filter accepts (nil: all).
func (m contractModel) live(filter func(uint32) bool) int {
	n := 0
	for id, dead := range m.dead {
		if !dead && (filter == nil || filter(uint32(id))) {
			n++
		}
	}
	return n
}

// topK is the exact top-k by (Dist, ID): Metric.Distance from the query
// quantized to the element type to every live row.
func (m contractModel) topK(q []float32, k int) []Neighbor {
	qq := m.stored(q)
	var all []Neighbor
	for id, v := range m.rows {
		if !m.dead[id] {
			all = append(all, Neighbor{ID: uint32(id), Dist: m.metric.Distance(qq, v)})
		}
	}
	slices.SortFunc(all, func(a, b Neighbor) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	return all[:min(k, len(all))]
}

// checkAnswer fails unless nn is min(k, live) results in (Dist, ID) order,
// none deleted or unassigned, all accepted by filter.
func checkAnswer(t *testing.T, where string, nn []Neighbor, m contractModel, k int, filter func(uint32) bool) {
	t.Helper()
	if want := min(k, m.live(filter)); len(nn) != want {
		t.Fatalf("%s: %d results, want min(k, live) = %d: %v", where, len(nn), want, nn)
	}
	for i, n := range nn {
		switch {
		case int(n.ID) >= len(m.rows) || m.dead[n.ID]:
			t.Fatalf("%s: result %d is id %d, deleted or never assigned", where, i, n.ID)
		case filter != nil && !filter(n.ID):
			t.Fatalf("%s: result %d is id %d, which the Filter refuses", where, i, n.ID)
		case i > 0 && !nn[i-1].Less(n):
			t.Fatalf("%s: results %d, %d out of (Dist, ID) order: %v", where, i-1, i, nn)
		}
	}
}

// recallOf is |got ∩ truth| / |truth|.
func recallOf(got, truth []Neighbor) float64 {
	hit := 0
	for _, g := range got {
		if slices.ContainsFunc(truth, func(n Neighbor) bool { return n.ID == g.ID }) {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// verify checks db against the model m: its rows and tombstones; the exact
// scan and auto ≡ the brute force in ids and distance bits, with the honest
// line count, at k past the population too; every host beam's answer
// well-formed; DoMany ≡ serial Do at k = 10. Given sys, an NDP-ETOpt model
// built over db as it is now, it checks the model's routes against the
// database's: its ndp beam ≡ the host beam, and its tiered query at budget 1
// ≡ the exact scan.
func verify(t *testing.T, label string, db *Database, m contractModel, queries [][]float32, sys *core.System) {
	t.Helper()
	live := m.live(nil)
	if db.Len() != len(m.rows) || db.Tombstones() != len(m.rows)-live {
		t.Fatalf("%s: %d rows, %d tombstones; the model has %d, %d", label, db.Len(), db.Tombstones(), len(m.rows), len(m.rows)-live)
	}
	for id, want := range m.rows {
		if got, _ := db.Vector(uint32(id)); !slices.Equal(got, want) || db.Deleted(uint32(id)) != m.dead[id] {
			t.Fatalf("%s: row %d is %v (deleted %v); the model has %v (deleted %v)", label, id, got, db.Deleted(uint32(id)), want, m.dead[id])
		}
	}
	plans := []Query{{K: 1, Route: RouteExact}, {K: live + 5, Route: RouteExact}, {K: 10, Route: RouteExact}, {K: 10, Route: RouteAuto}}
	for _, f := range []func(uint32) bool{nil, oddIDs} {
		plans = append(plans, Query{K: 1, Route: RouteHost, Filter: f}, Query{K: 10, Route: RouteHost, Filter: f})
	}
	truth := make([][]Neighbor, len(queries))
	for qi, vec := range queries {
		truth[qi] = m.topK(vec, live)
	}
	plain := (len(m.rows[0])*m.elem.Bytes() + 63) / 64
	ctx := context.Background()
	var ndp func(Query) []Neighbor
	var tiered func([]float32, int) []Neighbor
	if sys != nil {
		ndp, tiered = beamOver(sys, sys.NewWorkerEngine()), tieredOver(db, sys.NewWorkerEngine())
	}
	for _, p := range plans {
		want := p.Route
		if want == RouteAuto {
			want = RouteExact
		}
		serial := make([][]Neighbor, len(queries))
		for qi, vec := range queries {
			where := fmt.Sprintf("%s: %v k=%d filter=%v q%d", label, p.Route, p.K, p.Filter != nil, qi)
			q := p
			q.Vector = vec
			res, err := db.Do(ctx, &q)
			if err != nil || res.Route != want {
				t.Fatalf("%s: ran %v, err %v; want %v", where, res.Route, err, want)
			}
			checkAnswer(t, where, res.Neighbors, m, p.K, p.Filter)
			switch {
			case p.Route != RouteHost:
				sameBits(t, where+" ≡ brute force", res.Neighbors, truth[qi][:min(p.K, live)])
				if res.Lines != live*plain {
					t.Fatalf("%s: %d lines, want %d live rows × %d", where, res.Lines, live, plain)
				}
				if sys != nil && p.Route == RouteExact && p.K > 1 {
					sameBits(t, where+" exact ≡ tiered", res.Neighbors, tiered(vec, p.K))
				}
			case sys != nil:
				sameBits(t, where+" host ≡ ndp", res.Neighbors, ndp(q))
			}
			serial[qi] = res.Neighbors
		}
		if p.K != 10 || p.Filter != nil {
			continue
		}
		many, route, err := db.DoMany(ctx, queries, &p, 3)
		if err != nil || route != want {
			t.Fatalf("%s: DoMany %v ran %v, err %v", label, p.Route, route, err)
		}
		for qi := range queries {
			sameBits(t, fmt.Sprintf("%s: %v q%d DoMany ≡ Do", label, p.Route, qi), many[qi], serial[qi])
		}
	}
}

// ndpModel builds the NDP-ETOpt model over db with the database's seed: the
// model the ndp beam and the tiered route run over.
func ndpModel(t testing.TB, db *Database) *core.System {
	t.Helper()
	cfg := core.DefaultSystemConfig(core.NDPETOpt)
	cfg.Seed = db.opts.Seed
	sys, err := db.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// beamOver is the ndp beam: the host beam's traversal of a query over a
// model's index and batch on eng, filtered by the model's own tombstones.
func beamOver(sys *core.System, eng engine.Engine) func(q Query) []Neighbor {
	return func(q Query) []Neighbor {
		qq := quantizeInto(make([]float32, len(q.Vector)), q.Vector, sys.Elem)
		nn, _ := sys.Index.SearchCancelInto(nil, qq, q.K, q.beam(), sys.Cfg.BeamBatch, modelFilter(sys, q.Filter), eng, nil, nil)
		return nn
	}
}

// modelFilter is f restricted to the ids live in the model: the tombstones
// are the model's copy, not the database's.
func modelFilter(sys *core.System, f func(uint32) bool) func(uint32) bool {
	live := sys.Live()
	switch {
	case live == nil:
		return f
	case f == nil:
		return live
	}
	return func(id uint32) bool { return live(id) && f(id) }
}

// tieredOver is the tiered route at budget 1 on a model's ET engine.
func tieredOver(db *Database, eng engine.Engine) func(vec []float32, k int) []Neighbor {
	et := eng.(*core.ETEngine)
	return func(vec []float32, k int) []Neighbor {
		qq := quantizeInto(make([]float32, len(vec)), vec, db.opts.Elem)
		nn, _ := et.TieredKNNInto(nil, qq, k, core.TieredOpts{Budget: 1}, nil)
		return nn
	}
}

// contractCell is one configuration the harness runs a script over.
type contractCell struct {
	name   string
	prof   string // the dataset profile the population and queries are drawn from
	n      int
	unit   bool // normalized, for Cosine
	opts   Options
	writes int
	seed   uint64
	// design is that of the NDP model at RecallTarget 1 the final state is
	// also checked under (checkModels; zero: CPU-Base, no early termination),
	// target a RecallTarget in (0, 1) of a second model at it, built over the
	// state New left (checkAdaptive), 0 for none.
	design core.Design
	target float64
}

func (c contractCell) String() string {
	return fmt.Sprintf("%s (%s n=%d, seed %d, %v, target %v, %+v)", c.name, c.prof, c.n, c.seed, c.design, c.target, c.opts)
}

func (c contractCell) script() []scriptOp {
	ops := contractScript(c.seed, c.n, dataset.ProfileByName(c.prof).Dim, c.writes, c.opts.Elem)
	for _, op := range ops {
		if c.unit && op.vec != nil {
			Normalize(op.vec)
		}
	}
	return ops
}

// harness is one cell's script in flight: the database, the model of what it
// acknowledged and, on a mutable cell, the journal since its snapshot.
type harness struct {
	t       *testing.T
	queries [][]float32
	db      *Database
	m       contractModel
	snap    string          // the snapshot the attached journal continues
	wal     string          // the attached journal
	history []contractModel // the model at the snapshot, then after each acknowledged write
	ends    []int64         // the journal's length at each history entry
	acked   []scriptOp
	probe   [][]float32 // the Do and DoMany steps' queries
	// ndp is the NDP-ETOpt model verify checks the database's routes against,
	// built over the state the last step that changed the database left (run).
	ndp *core.System
}

func newHarness(t *testing.T, c contractCell) *harness {
	ds := dataset.Generate(dataset.ProfileByName(c.prof), c.n, 21, c.seed)
	if c.unit {
		for _, v := range append(ds.Vectors, ds.Queries...) {
			Normalize(v)
		}
	}
	build := func(opts Options) *Database {
		db, err := New(ds.Vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	h := &harness{t: t, queries: ds.Queries[:1], probe: ds.Queries[1:], db: build(c.opts), m: newContractModel(ds.Vectors, c.opts)}
	h.ndp = ndpModel(t, h.db)
	if c.target > 0 && c.target < 1 {
		h.checkAdaptive(c.design, c.target)
	}
	if c.opts.Mutable {
		imm := c.opts
		imm.Mutable = false
		unmutated := build(imm)
		sameDatabase(t, "unmutated mutable ≡ immutable", unmutated, h.db, nil)
		verify(t, "the immutable build", unmutated, h.m, h.queries, nil)
		h.snap = filepath.Join(t.TempDir(), "db.snap")
		h.wal = WALName(h.snap)
		if err := h.db.SaveFile(h.snap); err != nil {
			t.Fatal(err)
		}
		if err := h.db.AttachWAL(h.wal); err != nil {
			t.Fatal(err)
		}
		h.compacted()
	}
	return h
}

// compacted restarts the journal's history at the database as it is.
func (h *harness) compacted() {
	_, size := h.journal()
	h.history, h.ends = []contractModel{h.m}, []int64{size}
}

func (h *harness) journal() (seq uint64, size int64) {
	fi, err := os.Stat(h.wal)
	if err != nil {
		h.t.Fatal(err)
	}
	return h.db.Stats().WALLastSeq, fi.Size()
}

// run drives the script step by step, checking every invariant (verify) after
// each, and the final state under the cell's design. A model is a copy, so a
// step that changes the database (step) gets a fresh one; the others reuse
// the last. A failure prints the
// cell and the script up to the failing step — the shortest prefix that
// fails, every shorter one having passed — as a Go literal.
func (h *harness) run(c contractCell, script []scriptOp) {
	t := h.t
	step := -1
	defer func() {
		if t.Failed() {
			t.Logf("contract cell %v: steps 0..%d of %d, the shortest failing prefix:\n%s", c, step, len(script), goLiteral(script[:step+1]))
		}
	}()
	verify(t, "build", h.db, h.m, h.queries, h.ndp)
	for step = range script {
		op := script[step]
		if h.step(op) {
			h.ndp = ndpModel(t, h.db)
		}
		verify(t, fmt.Sprintf("step %d (%s)", step, stepNames[op.kind]), h.db, h.m, h.queries, h.ndp)
	}
	h.checkModels(c.design)
}

// modelAt builds the NDP model at a design point and a recall target over
// the database's rows, graph and tombstones: the design's defaults with the
// database's seed and the default platform.
func (h *harness) modelAt(design core.Design, target float64) *sim.Model {
	cfg := core.DefaultSystemConfig(design)
	cfg.Seed = h.db.opts.Seed
	sys, err := h.db.NewSystem(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	mcfg := sim.DefaultConfig()
	mcfg.RecallTarget = target
	m, err := sim.NewModel(sys, mcfg)
	if err != nil {
		h.t.Fatal(err)
	}
	return m
}

// checkModels checks the state the script left under a model at design and
// RecallTarget 1, built over it, on the probe queries, filtered and not. At
// RecallTarget 1 the model has no precision map, and its beam is bitwise the
// database's host beam whatever its design — early termination never changes
// an answer — and on an ET design its tiered query at budget 1 is bitwise
// the database's exact scan.
func (h *harness) checkModels(design core.Design) {
	t, db := h.t, h.db
	ctx := context.Background()
	one := h.modelAt(design, 1)
	if one.Precision != nil {
		t.Fatal("RecallTarget 1 built a precision map")
	}
	beam := beamOver(one.System, one.NewWorkerEngine())
	for qi, vec := range h.probe {
		for _, f := range []func(uint32) bool{nil, oddIDs} {
			res, err := db.Do(ctx, &Query{Vector: vec, K: 10, Route: RouteHost, Filter: f})
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%v at RecallTarget 1: q%d filter=%v beam ≡ host", one.Cfg.Design, qi, f != nil), beam(Query{Vector: vec, K: 10, Filter: f}), res.Neighbors)
		}
		if one.Store == nil {
			continue
		}
		res, err := db.Do(ctx, &Query{Vector: vec, K: 10, Route: RouteExact})
		if err != nil {
			t.Fatal(err)
		}
		got := tieredOver(db, one.NewWorkerEngine())(vec, 10)
		sameBits(t, fmt.Sprintf("%v at RecallTarget 1: q%d tiered ≡ exact", one.Cfg.Design, qi), got, res.Neighbors)
	}
}

// checkAdaptive checks a model at design and a target in (0, 1), built over
// the database as New left it, on the probe queries, filtered and not: the
// adaptive beam trades exactness for lines, keeping recall — its recall@10
// against the brute force is within 0.05 of the target or of the host beam's
// over the same graph, whichever is lower.
func (h *harness) checkAdaptive(design core.Design, target float64) {
	t, db := h.t, h.db
	ctx := context.Background()
	sys := h.modelAt(design, target)
	if sys.Precision == nil {
		t.Fatalf("RecallTarget %v built no precision map", target)
	}
	adaptive := beamOver(sys.System, sys.NewWorkerEngine())
	var recall [2]float64 // the adaptive beam's, the host beam's
	for _, f := range []func(uint32) bool{nil, oddIDs} {
		for _, vec := range h.probe {
			truth := h.m.topK(vec, len(h.m.rows))
			if f != nil {
				truth = slices.DeleteFunc(truth, func(n Neighbor) bool { return !f(n.ID) })
			}
			host, err := db.Do(ctx, &Query{Vector: vec, K: 10, Route: RouteHost, Filter: f})
			if err != nil {
				t.Fatal(err)
			}
			for i, nn := range [][]Neighbor{adaptive(Query{Vector: vec, K: 10, Filter: f}), host.Neighbors} {
				recall[i] += recallOf(nn, truth[:10]) / float64(2*len(h.probe))
			}
		}
	}
	t.Logf("recall@10 against the brute force: adaptive beam at RecallTarget %v %.3f, host beam %.3f", target, recall[0], recall[1])
	if floor := min(recall[1], target) - 0.05; recall[0] < floor {
		t.Fatalf("the adaptive beam's recall@10 %.3f is below %.3f (host beam %.3f)", recall[0], floor, recall[1])
	}
}

func runCell(t *testing.T, c contractCell) {
	newHarness(t, c).run(c, c.script())
}

// step takes one step of the script and reports whether it changed the
// database: Maintain, an acknowledged write, SaveFile.
func (h *harness) step(op scriptOp) (changed bool) {
	t := h.t
	switch op.kind {
	case 0:
		h.db.Maintain()
		return true
	case recAdd, recDelete, recUpdate:
		return h.write(op)
	case stepDo:
		h.doCells(h.probe[op.at%len(h.probe)])
	case stepDoMany:
		h.doMany(op.at)
	case stepSave:
		var buf bytes.Buffer
		if err := h.db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		h.reloaded("Save → Load", back)
	case stepSaveFile:
		path := h.snap
		if path == "" {
			path = filepath.Join(t.TempDir(), "db.snap")
		}
		if err := h.db.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		entries, _ := os.ReadDir(filepath.Dir(path))
		for _, e := range entries {
			if e.Name() != filepath.Base(path) && e.Name() != filepath.Base(WALName(path)) {
				t.Fatalf("SaveFile left %s behind", e.Name())
			}
		}
		if h.wal != "" {
			h.compacted()
		}
		back, err := LoadFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.reloaded("SaveFile → LoadFile", back)
		back.Close()
		return true
	case stepCut:
		if h.wal != "" {
			h.cut(op.at)
		}
	}
	return false
}

// write takes one of commitScript's writes to the database and the model: the
// verdicts must agree, and a refused write leaves the journal as it was while
// an acknowledged one adds one record. It reports whether the write was
// acknowledged.
func (h *harness) write(op scriptOp) bool {
	t := h.t
	want := h.m.write(op)
	var seq uint64
	var size int64
	if h.wal != "" {
		seq, size = h.journal()
	}
	err := op.run(h.db)
	if (want == nil) != (err == nil) || want != nil && !errors.Is(err, want) {
		t.Fatalf("%s of id %d: %v; the model says %v", kindNames[op.kind], op.id, err, want)
	}
	if h.wal == "" {
		return want == nil
	}
	nseq, nsize := h.journal()
	switch {
	case want != nil && (nseq != seq || nsize != size):
		t.Fatalf("a refused %s moved the journal: seq %d → %d, %d → %d bytes", kindNames[op.kind], seq, nseq, size, nsize)
	case want == nil && (nseq != seq+1 || nsize <= size):
		t.Fatalf("an acknowledged %s: seq %d → %d, %d → %d bytes", kindNames[op.kind], seq, nseq, size, nsize)
	case want == nil:
		h.history, h.ends, h.acked = append(h.history, h.m), append(h.ends, nsize), append(h.acked, op)
	}
	return want == nil
}

// acknowledgedAt is how many of the history's writes a journal cut at off keeps.
func (h *harness) acknowledgedAt(off int) int {
	m := 0
	for m+1 < len(h.ends) && h.ends[m+1] <= int64(off) {
		m++
	}
	return m
}

// cut copies the snapshot and the journal cut at at‰ of its length, recovers
// them with LoadFile, and checks the result against the model at the
// acknowledged prefix.
func (h *harness) cut(at int) {
	t := h.t
	data, err := os.ReadFile(h.wal)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(h.snap)
	if err != nil {
		t.Fatal(err)
	}
	off := at * len(data) / 1000
	m := h.acknowledgedAt(off)
	snap := filepath.Join(t.TempDir(), "db.snap")
	if err := os.WriteFile(snap, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(WALName(snap), data[:off], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := LoadFile(snap, nil)
	if err != nil {
		t.Fatalf("recovering a journal cut at %d of %d bytes: %v", off, len(data), err)
	}
	defer rec.Close()
	label := fmt.Sprintf("journal cut at %d of %d bytes (%d acknowledged writes)", off, len(data), m)
	if got := rec.Stats().WALReplayed; got != uint64(m) {
		t.Fatalf("%s: replayed %d", label, got)
	}
	verify(t, label, rec, h.history[m], h.queries, ndpModel(t, rec))
	if _, err := rec.Add(h.queries[0]); err != nil {
		t.Fatalf("%s: the recovered journal refuses a write: %v", label, err)
	}
}

// reloaded checks a database reloaded from the current one: the same rows,
// tombstones, pending repairs and graph, and every invariant against the
// model.
func (h *harness) reloaded(label string, back *Database) {
	sameDatabase(h.t, label, h.db, back, nil)
	verify(h.t, label, back, h.m, h.queries, ndpModel(h.t, back))
}

// doCells runs Do on one query in every route × {background, live, expired,
// mid-flight} × {nil, reused Dst} × {nil, Filter} cell against its contract:
// the route, the cancellation errors, a Filter refused where it cannot be
// honoured, a well-formed answer in Dst, a never-firing context changing
// nothing.
func (h *harness) doCells(vec []float32) {
	t, db := h.t, h.db
	truth := h.m.topK(vec, 10)
	for _, route := range allRoutes {
		for _, f := range []func(uint32) bool{nil, oddIDs} {
			for _, reuse := range []bool{false, true} {
				var ref Result
				for _, ck := range doCtxKinds {
					where := fmt.Sprintf("Do %v filter=%v reuse=%v %s", route, f != nil, reuse, ck.name)
					q := Query{Vector: vec, K: 10, Route: route, Filter: f}
					if reuse {
						q.Dst = make([]Neighbor, 3, 64)
					}
					ctx, cancel := ck.make()
					got, err := db.Do(ctx, &q)
					cancel()
					want := route
					switch {
					case route == RouteAuto && f != nil:
						want = RouteHost
					case route == RouteAuto:
						want = RouteExact
					}
					var ce *CancelError
					switch {
					case ck.ctxErr == context.DeadlineExceeded:
						// Refused before anything else looks at the query: a
						// vector of the wrong dimension is not even checked.
						q.Vector = vec[1:]
						_, badErr := db.Do(ctx, &q)
						if !errors.As(err, &ce) || ce.Partial || got.Neighbors != nil || !errors.Is(err, ck.wantErr) ||
							!errors.Is(err, ck.ctxErr) || !sameError(badErr, err) {
							t.Fatalf("%s: err %v, %v (wrong dimension: %v); want an aborted %v", where, err, got.Neighbors, badErr, ck.wantErr)
						}
					case f != nil && route == RouteExact:
						if !errors.Is(err, errFilterRoute) || !IsInvalidInput(err) || got.Neighbors != nil {
							t.Fatalf("%s: err %v, want errFilterRoute", where, err)
						}
					case ck.wantErr != nil:
						// Fired before the route's first checkpoint: every
						// route's partial there is empty.
						if !errors.As(err, &ce) || ce.Partial || len(got.Neighbors) != 0 || got.Route != want ||
							!errors.Is(err, ck.wantErr) || !errors.Is(err, ck.ctxErr) {
							t.Fatalf("%s: err %v with %d results on %v, want an empty %v on %v", where, err, len(got.Neighbors), got.Route, ck.wantErr, want)
						}
					default:
						if err != nil || got.Route != want {
							t.Fatalf("%s: ran %v, err %v; want %v", where, got.Route, err, want)
						}
						checkAnswer(t, where, got.Neighbors, h.m, 10, f)
						if reuse && len(got.Neighbors) > 0 && &got.Neighbors[0] != &q.Dst[:1][0] {
							t.Fatalf("%s: the results did not land in Dst", where)
						}
						if scan := want == RouteExact; scan != (got.Lines > 0) {
							t.Fatalf("%s: route %v reports %d lines", where, want, got.Lines)
						}
						if f == nil && want == RouteExact {
							sameBits(t, where+" ≡ brute force", got.Neighbors, truth)
						}
						if ck.name == "background" {
							ref = got
							ref.Neighbors = slices.Clone(got.Neighbors)
						} else if got.Route != ref.Route || got.Lines != ref.Lines {
							t.Fatalf("%s: a context that never fires changed the answer: %+v, background %+v", where, got, ref)
						} else {
							sameBits(t, where+" ≡ background", got.Neighbors, ref.Neighbors)
						}
					}
				}
			}
		}
	}
	if st := db.RouterStats(); st.Host == 0 || st.Exact == 0 {
		t.Fatalf("the router did not count every route it ran: %+v", st)
	}
}

// doMany checks one DoMany plan against serial Do, and an expired batch.
func (h *harness) doMany(at int) {
	t, db, ctx, queries := h.t, h.db, context.Background(), h.probe[:4]
	plan := Query{K: 10, Route: allRoutes[at%len(allRoutes)]}
	if at/5%2 == 1 {
		plan.Filter = oddIDs
	}
	where := fmt.Sprintf("DoMany %v filter=%v", plan.Route, plan.Filter != nil)
	many, route, err := db.DoMany(ctx, queries, &plan, 1+at/10%4)
	if plan.Filter != nil && plan.Route == RouteExact {
		if !errors.Is(err, errFilterRoute) || many != nil {
			t.Fatalf("%s: err %v, want errFilterRoute", where, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	for qi, vec := range queries {
		q := plan
		q.Vector = vec
		want, err := db.Do(ctx, &q)
		if err != nil || want.Route != route {
			t.Fatalf("%s q%d: serial Do ran %v (DoMany %v), err %v", where, qi, want.Route, route, err)
		}
		sameBits(t, fmt.Sprintf("%s q%d DoMany ≡ Do", where, qi), many[qi], want.Neighbors)
	}
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	var ce *CancelError
	if out, _, err := db.DoMany(expired, queries, &plan, 2); !errors.As(err, &ce) || ce.Partial || out != nil {
		t.Fatalf("%s expired: %v, %d slots", where, err, len(out))
	}
}

// contractRegressions is the regression table: scripts a failure printed,
// keyed by the TestContract cell they failed on, which replays them.
var contractRegressions = map[string][][]scriptOp{}

// TestContract runs the matrix: {immutable, mutable} × {the database and its
// NDP-ETOpt twin at RecallTarget 1, and also one at RecallTarget 0.9 over the
// state New left} × {SIFT-u8, DEEP-f32, GloVe-IP, a cosine set}. A database
// has one precision, the fixed depth of RecallTarget 0; the target=0.9 column
// adds the adaptive model's recall check (checkAdaptive).
func TestContract(t *testing.T) {
	sets := []struct {
		name, prof string
		metric     Metric
	}{{"sift-u8", "SIFT", L2}, {"deep-f32", "DEEP", L2}, {"glove-ip", "GloVe", InnerProduct}, {"deep-cosine", "DEEP", Cosine}}
	seed := uint64(1)
	for _, mutable := range []bool{false, true} {
		for _, target := range []float64{0, 0.9} {
			for _, set := range sets {
				c := contractCell{
					name: fmt.Sprintf("mutable=%v/target=%v/%s", mutable, target, set.name), prof: set.prof, n: 100,
					unit: set.metric == Cosine, writes: 12, seed: seed, design: core.NDPETOpt, target: target,
					opts: Options{Metric: set.metric, Elem: dataset.ProfileByName(set.prof).Elem, EfConstruction: 40,
						Seed: 7, Mutable: mutable, RepairEvery: 4},
				}
				seed++
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					runCell(t, c)
					for _, script := range contractRegressions[c.name] {
						newHarness(t, c).run(c, script)
					}
				})
			}
		}
	}
}

// namedCells are short scripts over more configurations. Each former
// per-feature suite keeps its name as one: over the population and options it
// covered or, where several covered one, an element type the matrix does not
// or a model at a design it does not. Every check is the harness's.
var namedCells = map[string]contractCell{
	"TestExactKNNMatchesBruteForce":            {prof: "SPACEV", n: 64, opts: Options{Metric: L2, Elem: Int8}},
	"TestSaveLoadRoundTrip":                    {prof: "SPACEV", n: 64, opts: Options{Metric: L2, Elem: Int8, Mutable: true}},
	"TestCosinePipeline":                       {prof: "GloVe", n: 64, opts: Options{Metric: Cosine, Elem: Float32, Mutable: true}},
	"TestSearchCtxMatchesSearch":               {prof: "DEEP", n: 64, opts: Options{Metric: L2, Elem: BFloat16}},
	"TestWALRecoveryEquivalence":               {prof: "DEEP", n: 64, opts: Options{Metric: L2, Elem: Float16, Mutable: true}},
	"TestSnapshotCompactionRoundTrip":          {prof: "DEEP", n: 64, opts: Options{Metric: L2, Elem: BFloat16, Mutable: true, RepairEvery: -1}},
	"TestMutableSearchExcludesTombstones":      {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Float32, Mutable: true}},
	"TestMutableNilMutationByteIdentity":       {prof: "GloVe", n: 64, opts: Options{Metric: L2, Elem: Float32, Mutable: true}},
	"TestFilteredRecallTargetByteIdentity":     {prof: "GloVe", n: 64, opts: Options{Metric: L2, Elem: Float32, Mutable: true}, design: core.NDPETOpt, target: 0.9},
	"TestRecallTargetEndpointsByteIdentical":   {prof: "GloVe", n: 64, opts: Options{Metric: InnerProduct, Elem: Float32}, design: core.NDPETOpt, target: 1},
	"TestTieredSearchMatchesExactSearch":       {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Uint8}, design: core.NDPET},
	"TestSearchRoutedModes":                    {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Uint8}, design: core.NDPETDual},
	"TestSearchManyRouted":                     {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Uint8}, design: core.NDPBitET},
	"TestSearchFilteredFacade":                 {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Uint8}, design: core.NDPDimET},
	"TestDatabaseDesignsAgree":                 {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Uint8}, design: core.NDPBase},
	"TestSearchRoutedBaseDesignDegradesTiered": {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Uint8, Mutable: true}, design: core.CPUBase},
	"TestExactSearchFacade":                    {prof: "DEEP", n: 64, opts: Options{Metric: L2, Elem: Float32, Mutable: true}, design: core.CPUET},
	"TestSearchManyMatchesSerial":              {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Uint8, Mutable: true}, design: core.CPUETOpt},
	"TestLoadWithDesignOverride":               {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Uint8, Mutable: true, RepairEvery: 1}},
	"TestLiveSnapshotServesUnderBaseOverride":  {prof: "SIFT", n: 64, opts: Options{Metric: L2, Elem: Float32, Mutable: true}, design: core.NDPBase},
	"TestSaveFileLoadFileRoundTrip":            {prof: "GloVe", n: 64, opts: Options{Metric: InnerProduct, Elem: Float16, Mutable: true}},
	"TestSearchCtxExpiredDeadline":             {prof: "DEEP", n: 64, opts: Options{Metric: InnerProduct, Elem: Float32}},
}

func namedCell(t *testing.T) {
	t.Parallel()
	c := namedCells[t.Name()]
	c.name, c.unit, c.writes, c.seed = t.Name(), c.opts.Metric == Cosine, 4, 3
	c.opts.EfConstruction, c.opts.Seed = 40, 7
	if c.opts.Mutable && c.opts.RepairEvery == 0 {
		c.opts.RepairEvery = 4
	}
	runCell(t, c)
}

func TestExactKNNMatchesBruteForce(t *testing.T)            { namedCell(t) }
func TestSaveLoadRoundTrip(t *testing.T)                    { namedCell(t) }
func TestCosinePipeline(t *testing.T)                       { namedCell(t) }
func TestSearchCtxMatchesSearch(t *testing.T)               { namedCell(t) }
func TestWALRecoveryEquivalence(t *testing.T)               { namedCell(t) }
func TestSnapshotCompactionRoundTrip(t *testing.T)          { namedCell(t) }
func TestMutableSearchExcludesTombstones(t *testing.T)      { namedCell(t) }
func TestMutableNilMutationByteIdentity(t *testing.T)       { namedCell(t) }
func TestFilteredRecallTargetByteIdentity(t *testing.T)     { namedCell(t) }
func TestRecallTargetEndpointsByteIdentical(t *testing.T)   { namedCell(t) }
func TestTieredSearchMatchesExactSearch(t *testing.T)       { namedCell(t) }
func TestSearchRoutedModes(t *testing.T)                    { namedCell(t) }
func TestSearchManyRouted(t *testing.T)                     { namedCell(t) }
func TestSearchFilteredFacade(t *testing.T)                 { namedCell(t) }
func TestDatabaseDesignsAgree(t *testing.T)                 { namedCell(t) }
func TestSearchRoutedBaseDesignDegradesTiered(t *testing.T) { namedCell(t) }
func TestExactSearchFacade(t *testing.T)                    { namedCell(t) }
func TestSearchManyMatchesSerial(t *testing.T)              { namedCell(t) }
func TestLoadWithDesignOverride(t *testing.T)               { namedCell(t) }
func TestLiveSnapshotServesUnderBaseOverride(t *testing.T)  { namedCell(t) }
func TestSaveFileLoadFileRoundTrip(t *testing.T)            { namedCell(t) }
func TestSearchCtxExpiredDeadline(t *testing.T)             { namedCell(t) }

// TestEveryAnswerHasMinKLive: the cell over the build vetted for full
// reachability (see vettedBuild), mutable, where a beam owes min(k, live).
func TestEveryAnswerHasMinKLive(t *testing.T) {
	t.Parallel()
	opts := vettedBuild
	opts.Mutable, opts.RepairEvery = true, 8
	runCell(t, contractCell{name: t.Name(), prof: "DEEP", n: 96, opts: opts, writes: 8, seed: 21})
}

// shardedCell is a Cluster checked against the unsharded database and its
// model: every scan at every k ≡ the brute force; each beam ≡ the unsharded
// one where the merge provably is its answer — an exhaustive ef on a build
// fully reachable at every shard count (reach asserts it), or one shard.
type shardedCell struct {
	prof    string
	n       int
	seed    uint64
	build   Options
	shards  []int
	schemes []PartitionScheme
	efs     []int // beam widths (0: the default, max(2k, 32))
	ks      []int // beam ks
	reach   bool
}

// vettedBuild is the DEEP n = 96 build swept for full reachability of the
// unsharded graph and of every shard sub-graph at every shard count and
// scheme below; HNSW pruning routinely strands a vector or two at larger n.
var vettedBuild = Options{Metric: L2, Elem: Float32, M: 24, MaxDegree: 24, EfConstruction: 200, Seed: 4}

var (
	allShardCounts = []int{1, 2, 3, 7, 16}
	bothSchemes    = []PartitionScheme{PartitionHash, PartitionKMeans}
)

func runSharded(t *testing.T, c shardedCell) {
	t.Parallel()
	ds := dataset.Generate(dataset.ProfileByName(c.prof), c.n, 3, c.seed)
	db, err := New(ds.Vectors, c.build)
	if err != nil {
		t.Fatal(err)
	}
	m := newContractModel(ds.Vectors, c.build)
	verify(t, "unsharded", db, m, ds.Queries, ndpModel(t, db))
	ctx := context.Background()
	reach := func(where string, found int) {
		if c.reach && found != c.n {
			t.Fatalf("%s: an exhaustive beam reaches %d of %d vectors; the identity needs a fully reachable build", where, found, c.n)
		}
	}
	for _, shards := range c.shards {
		for _, scheme := range c.schemes {
			name := fmt.Sprintf("shards=%d %v", shards, scheme)
			cl, err := NewCluster(ds.Vectors, ClusterOptions{Shards: shards, Partition: scheme, Build: c.build, DisableHedging: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			do := func(where string, q Query, want Route) []Neighbor {
				res, err := cl.Do(ctx, &q)
				if err != nil || res.Partial || len(res.Faults) != 0 || res.Route != want {
					t.Fatalf("%s: route %v (want %v) partial %v faults %v err %v", where, res.Route, want, res.Partial, res.Faults, err)
				}
				return res.Neighbors
			}
			for qi, vec := range ds.Queries {
				where := fmt.Sprintf("%s q%d", name, qi)
				exhaustive := Query{Vector: vec, K: c.n, Ef: c.n + 16, Route: RouteHost}
				if c.reach {
					res, err := db.Do(ctx, &exhaustive)
					if err != nil {
						t.Fatal(err)
					}
					reach(where+" unsharded", len(res.Neighbors))
					reach(where, len(do(where, exhaustive, RouteHost)))
				}
				truth := m.topK(vec, c.n)
				for _, k := range []int{1, 10, 40, c.n + 5} {
					for _, route := range []Route{RouteExact, RouteAuto} {
						q := Query{Vector: vec, K: k, Route: route} // auto: the quality route
						sameBits(t, fmt.Sprintf("%s %v k=%d ≡ brute force", where, route, k), do(where, q, RouteExact), truth[:min(k, c.n)])
					}
				}
				for _, ef := range c.efs {
					for _, k := range c.ks {
						for _, f := range []func(uint32) bool{nil, func(id uint32) bool { return id%3 == 0 }} {
							q := Query{Vector: vec, K: k, Ef: ef, Route: RouteHost, Filter: f}
							label := fmt.Sprintf("%s ef=%d k=%d filter=%v", where, ef, k, f != nil)
							want, err := db.Do(ctx, &q)
							if err != nil {
								t.Fatal(err)
							}
							got := do(label, q, RouteHost)
							checkAnswer(t, label, got, m, k, f)
							sameBits(t, label+" ≡ unsharded", got, want.Neighbors)
						}
					}
				}
				if _, err := cl.Do(ctx, &Query{Vector: vec, K: 10, Route: RouteExact, Filter: oddIDs}); !errors.Is(err, errFilterRoute) {
					t.Fatalf("%s: a filtered exact query: %v, want errFilterRoute", where, err)
				}
			}
			expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
			var ce *CancelError
			if _, err := cl.Do(expired, &Query{Vector: ds.Queries[0], K: 10}); !errors.As(err, &ce) || !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("%s: an expired query: %v", name, err)
			}
			cancel()
		}
	}
}

// TestClusterMergeByteIdenticalToUnsharded is the matrix's sharded arm: the
// immutable vetted build at {1, 2, 3, 7, 16} shards × {hash, kmeans}, beams at
// an exhaustive ef; and 1, 2 and 3 vectors cut {2, 3, 4} ways, where every
// shard holds one vector or none.
func TestClusterMergeByteIdenticalToUnsharded(t *testing.T) {
	runSharded(t, shardedCell{prof: "DEEP", n: 96, seed: 21, build: vettedBuild, shards: allShardCounts, schemes: bothSchemes,
		efs: []int{96 + 16}, ks: []int{1, 10, 40}, reach: true})
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSharded(t, shardedCell{prof: "DEEP", n: n, seed: 21, build: vettedBuild, shards: []int{2, 3, 4}, schemes: bothSchemes,
				efs: []int{n + 16}, ks: []int{1, n}, reach: true})
		})
	}
}

// TestClusterFilteredMatchesUnsharded: the same build at the default beam,
// exhaustive from k = 48 (2k ≥ n).
func TestClusterFilteredMatchesUnsharded(t *testing.T) {
	runSharded(t, shardedCell{prof: "DEEP", n: 96, seed: 21, build: vettedBuild, shards: allShardCounts, schemes: bothSchemes[:1],
		efs: []int{0}, ks: []int{48}, reach: true})
}

// TestClusterExactIdenticalAtScale and TestClusterSearchRouted: the scans
// alone, auto routing included, over a build too large to be fully
// reachable — the scans need no graph.
func TestClusterExactIdenticalAtScale(t *testing.T) {
	runSharded(t, shardedCell{prof: "DEEP", n: 300, seed: 21, build: deep300, shards: []int{7, 16}, schemes: bothSchemes})
}

func TestClusterSearchRouted(t *testing.T) {
	runSharded(t, shardedCell{prof: "DEEP", n: 300, seed: 21, build: deep300, shards: []int{2, 3}, schemes: bothSchemes[:1]})
}

var deep300 = Options{Metric: L2, Elem: Float32, EfConstruction: 60, Seed: 7}

// TestClusterSingleShardIdenticalAtServingBeam: one shard is the unsharded
// index, so the beams agree at serving widths too.
func TestClusterSingleShardIdenticalAtServingBeam(t *testing.T) {
	runSharded(t, shardedCell{prof: "SIFT", n: 250, seed: 9, build: Options{Metric: L2, Elem: Uint8, EfConstruction: 60, Seed: 11},
		shards: []int{1}, schemes: bothSchemes[:1], efs: []int{0, 32, 64, 128}, ks: []int{1, 10}})
}

// crashRig is the small journaled database the every-offset sweep and the
// replay fuzzer share: its population, its options and commitScript's writes.
func crashRig() ([][]float32, Options, []scriptOp) {
	rng := stats.NewRNG(99)
	base := make([][]float32, 32)
	for i := range base {
		base[i] = scriptVec(rng, 8, Float32)
	}
	return base, Options{Metric: L2, Elem: Float32, EfConstruction: 20, Seed: 7, Mutable: true, RepairEvery: 4},
		commitScript(21, len(base), 8, 20, Float32)
}

// TestWALCrashPointEveryOffset cuts one script's journal at every byte. Each
// recovery replays the writes acknowledged before the cut (the journal's
// length after each acknowledgment is the oracle), is the database that
// applied them directly — and at each new prefix, the model — and takes the
// next write.
func TestWALCrashPointEveryOffset(t *testing.T) {
	t.Parallel()
	base, opts, ops := crashRig()
	db, err := New(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer // recovery loads the base from its snapshot: cheaper than a build
	if err := db.Save(&img); err != nil {
		t.Fatal(err)
	}
	load := func() *Database {
		db, err := Load(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	dir := t.TempDir()
	h := &harness{t: t, db: db, m: newContractModel(base, opts), wal: filepath.Join(dir, "full.wal")}
	if err := db.AttachWAL(h.wal); err != nil {
		t.Fatal(err)
	}
	h.compacted()
	for _, op := range ops {
		h.step(op)
	}
	data, err := os.ReadFile(h.wal)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]float32{base[5], ops[0].vec}
	refs := map[int]*Database{}
	path := filepath.Join(dir, "cut.wal")
	for cut := 0; cut <= len(data); cut++ {
		m := h.acknowledgedAt(cut)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec := load()
		label := fmt.Sprintf("cut %d of %d (%d acknowledged writes)", cut, len(data), m)
		if err := rec.AttachWAL(path); err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		if got := rec.Stats().WALReplayed; got != uint64(m) {
			t.Fatalf("%s: replayed %d", label, got)
		}
		var qs [][]float32
		if refs[m] == nil {
			refs[m] = load()
			for _, op := range h.acked[:m] {
				if err := op.run(refs[m]); err != nil {
					t.Fatal(err)
				}
			}
			verify(t, label+" reference", refs[m], h.history[m], queries, ndpModel(t, refs[m]))
			qs = queries
		}
		sameDatabase(t, label, refs[m], rec, qs)
		if _, err := rec.Add(base[0]); err != nil {
			t.Fatalf("%s: the recovered journal refuses a write: %v", label, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzWALReplay feeds arbitrary bytes to journal replay, seeded with the
// crash rig's journal and classic corruptions of it: recovery never panics,
// and whenever it succeeds the database answers without tombstoned ids and
// takes new writes.
func FuzzWALReplay(f *testing.F) {
	base, opts, ops := crashRig()
	db, err := New(base, opts)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.wal")
	if err := db.AttachWAL(path); err != nil {
		f.Fatal(err)
	}
	for _, op := range ops {
		op.run(db) // refused writes leave no record
	}
	db.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	flipped, reseq := slices.Clone(valid), slices.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40
	reseq[11+1] ^= 0xff // the first record's sequence number
	for _, seed := range [][]byte{valid, valid[:len(valid)/2], valid[:11], {}, []byte("not a journal at all, definitely"), flipped, reseq} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := New(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AttachWAL(path); err != nil {
			return // refused: fine, as long as nothing panicked
		}
		defer db.Close()
		res, err := db.Do(context.Background(), &Query{Vector: base[3], K: 5})
		if err != nil {
			t.Fatalf("search after replay: %v", err)
		}
		for _, n := range res.Neighbors {
			if db.Deleted(n.ID) {
				t.Fatalf("the replayed database returned tombstoned id %d", n.ID)
			}
		}
		if _, err := db.Add(base[1]); err != nil {
			t.Fatalf("add after replay: %v", err)
		}
	})
}

// TestContractRecallUnderChurn: after 30 % of the rows are replaced through
// Update and Maintain has run, the host beam's recall@10 at the default ef
// is within 0.01 of a fresh build's over the same live rows, against the
// brute force. It runs on DEEP, where the gap is widest; EXPERIMENTS.md,
// "Recall under churn", has SIFT, GloVe and 100 % turnover.
func TestContractRecallUnderChurn(t *testing.T) {
	t.Parallel()
	p := dataset.ProfileByName("DEEP")
	const n, turnover = 2000, 0.3
	ds := dataset.Generate(p, 2*n, 50, 5) // the second half replaces rows of the first
	base, fresh := ds.Vectors[:n], ds.Vectors[n:]
	opts := Options{Metric: p.Metric, Elem: p.Elem, Seed: 7, Mutable: true}
	db, err := New(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := newContractModel(base, opts)
	order := stats.NewRNG(8).Perm(n) // each replaced row once
	for i := 0; i < int(turnover*n); i++ {
		op := scriptOp{kind: recUpdate, id: uint32(order[i]), vec: fresh[i]}
		if err := m.write(op); err != nil {
			t.Fatal(err)
		}
		if err := op.run(db); err != nil {
			t.Fatal(err)
		}
	}
	db.Maintain()
	var liveIDs []uint32
	var liveRows [][]float32
	for id, dead := range m.dead {
		if !dead {
			liveIDs, liveRows = append(liveIDs, uint32(id)), append(liveRows, m.rows[id])
		}
	}
	opts.Mutable = false
	rebuilt, err := New(liveRows, opts)
	if err != nil {
		t.Fatal(err)
	}
	var churned, reference float64
	for _, vec := range ds.Queries {
		truth := m.topK(vec, 10)
		a, err := db.Do(context.Background(), &Query{Vector: vec, K: 10, Route: RouteHost})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rebuilt.Do(context.Background(), &Query{Vector: vec, K: 10, Route: RouteHost})
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.Neighbors {
			b.Neighbors[i].ID = liveIDs[b.Neighbors[i].ID]
		}
		churned += recallOf(a.Neighbors, truth) / float64(len(ds.Queries))
		reference += recallOf(b.Neighbors, truth) / float64(len(ds.Queries))
	}
	t.Logf("recall@10 after %.0f %% turnover: %.3f, fresh build %.3f", 100*turnover, churned, reference)
	if churned < reference-0.01 {
		t.Fatalf("recall@10 after churn %.3f is more than 0.01 below a fresh build's %.3f", churned, reference)
	}
}

// TestConcurrentMutateSearch runs one journaled writer under four searchers
// on every route (under -race in CI). A search never returns an id deleted
// before it started, every answer is full, and every distance is the stored
// row's: a torn row or neighbour list would show as a mismatch or a crash.
// Then the journal recovers to the acknowledged history in ack order: the
// model, and the database that applied it directly.
func TestConcurrentMutateSearch(t *testing.T) {
	t.Parallel()
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 400, 8, 71)
	opts := Options{Metric: L2, Elem: Float32, EfConstruction: 40, Mutable: true, RepairEvery: 4}
	db, err := New(ds.Vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.wal")
	if err := db.AttachWAL(path); err != nil {
		t.Fatal(err)
	}
	fresh := dataset.Generate(dataset.ProfileByName("SIFT"), 64, 0, 72).Vectors

	var (
		stop  atomic.Bool
		ackMu sync.Mutex
		acked []scriptOp // the acknowledged writes, in ack order
		dead  = map[uint32]bool{}
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		next := uint32(2) // the deletion cursor over the initial population
		for i := 0; next <= 380; i++ {
			op := scriptOp{kind: recAdd, vec: fresh[i%len(fresh)]}
			switch i % 4 {
			case 2:
				op = scriptOp{kind: recDelete, id: next}
				next += 3
			case 3:
				if i%16 == 3 {
					db.Maintain()
				}
				op = scriptOp{kind: recUpdate, id: next, vec: fresh[(i+7)%len(fresh)]}
				next += 3
			}
			if err := op.run(db); err != nil {
				t.Error(err)
				break
			}
			ackMu.Lock()
			acked = append(acked, op)
			if op.kind != recAdd {
				dead[op.id] = true
			}
			ackMu.Unlock()
		}
		stop.Store(true)
	}()
	routes := []Route{RouteHost, RouteExact}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []Neighbor
			for i := 0; !stop.Load(); i++ {
				vec := ds.Queries[(i+w)%len(ds.Queries)]
				ackMu.Lock()
				gone := maps.Clone(dead) // acknowledged before this search starts
				ackMu.Unlock()
				route := routes[i%len(routes)]
				res, err := db.Do(context.Background(), &Query{Vector: vec, K: 10, Ef: 50, Route: route, Dst: dst})
				if err != nil || len(res.Neighbors) != 10 {
					t.Errorf("%v: %d results, err %v", route, len(res.Neighbors), err)
					return
				}
				dst = res.Neighbors
				for _, n := range dst {
					v, ok := db.Vector(n.ID)
					switch {
					case gone[n.ID]:
						t.Errorf("%v returned id %d, deleted before the search started", route, n.ID)
						return
					case !ok:
						t.Errorf("%v returned id %d, which has no row", route, n.ID)
						return
					case L2.Distance(vec, v) != n.Dist:
						t.Errorf("%v: id %d at %v, its stored row at %v (a torn read?)", route, n.ID, n.Dist, L2.Distance(vec, v))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	m := newContractModel(ds.Vectors, opts)
	ref, err := New(ds.Vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range acked {
		if err := m.write(op); err != nil {
			t.Fatalf("acknowledged write %d: the model refuses it: %v", i, err)
		}
		if err := op.run(ref); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := New(ds.Vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.AttachWAL(path); err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Stats().WALReplayed; got != uint64(len(acked)) {
		t.Fatalf("replayed %d of %d acknowledged writes", got, len(acked))
	}
	verify(t, "recovered", rec, m, ds.Queries[:1], nil)
	sameDatabase(t, "recovered ≡ the history applied directly", ref, rec, nil)
}
