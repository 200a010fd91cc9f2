package ndp_test

import (
	"errors"
	"math"
	"testing"

	"ansmet/internal/bitplane"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/ndp"
	"ansmet/internal/prefixelim"
	"ansmet/internal/rows"
	"ansmet/internal/sim"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

func TestConfigureRoundTrip(t *testing.T) {
	c := ndp.Config{
		Elem: vecmath.Float32, Dim: 256, Metric: vecmath.L2,
		PrefixLen: 6, PrefixVal: 0x2f, Nc: 9, Tc: 1, Nf: 2,
	}
	got, err := ndp.DecodeConfigure(ndp.EncodeConfigure(c))
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("configure round trip: %+v != %+v", got, c)
	}
	sched := got.Schedule()
	if err := sched.Validate(vecmath.Float32); err != nil {
		t.Fatalf("decoded schedule invalid: %v", err)
	}
}

func TestConfigureRejectsCorruption(t *testing.T) {
	c := ndp.Config{Elem: vecmath.Uint8, Dim: 128, Metric: vecmath.L2, Nc: 4, Tc: 2, Nf: 2}
	// An out-of-range field must be caught by field validation.
	for _, f := range []struct {
		at  int
		val byte
	}{{0, 0xff}, {1, 0xff}} { // element type, metric
		bad := ndp.EncodeConfigure(c)
		bad[f.at] = f.val
		if _, err := ndp.DecodeConfigure(bad); !errors.Is(err, ndp.ErrBadField) {
			t.Fatalf("byte %d = %#x: got %v, want ndp.ErrBadField", f.at, f.val, err)
		}
	}
	// Nc>0 with Nf==0 would hang DualSchedule; the decoder must reject it.
	loop := ndp.Config{Elem: vecmath.Uint8, Dim: 128, Metric: vecmath.L2, Nc: 4, Tc: 2, Nf: 0}
	if _, err := ndp.DecodeConfigure(ndp.EncodeConfigure(loop)); !errors.Is(err, ndp.ErrBadField) {
		t.Fatalf("Nc>0,Nf=0: got %v, want ndp.ErrBadField", err)
	}
}

func TestSetSearchRoundTrip(t *testing.T) {
	tasks := []ndp.Task{{Addr: 7, Threshold: 1.5}, {Addr: 123456, Threshold: -2.25}, {Addr: 3, Threshold: 0}}
	p, n, err := ndp.EncodeSetSearch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ndp.DecodeSetSearch(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tasks) {
		t.Fatalf("%d tasks, want %d", len(got), len(tasks))
	}
	for i := range tasks {
		if got[i] != tasks[i] {
			t.Fatalf("task %d: %+v != %+v", i, got[i], tasks[i])
		}
	}
	if _, _, err := ndp.EncodeSetSearch(nil); err == nil {
		t.Error("empty set-search should fail")
	}
	if _, _, err := ndp.EncodeSetSearch(make([]ndp.Task, ndp.TasksPerQSHR+1)); err == nil {
		t.Error("oversized batch should fail")
	}
	if _, _, err := ndp.EncodeSetSearch([]ndp.Task{{Threshold: float32(math.NaN())}}); err == nil {
		t.Error("NaN threshold should fail")
	}
	if _, err := ndp.DecodeSetSearch(p, 0); !errors.Is(err, ndp.ErrBadField) {
		t.Error("zero count should fail")
	}
	if _, err := ndp.DecodeSetSearch(p, ndp.TasksPerQSHR+1); !errors.Is(err, ndp.ErrBadField) {
		t.Error("oversized count should fail")
	}
}

func TestQueryChunksRoundTrip(t *testing.T) {
	r := stats.NewRNG(3)
	for _, elem := range []vecmath.ElemType{vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.BFloat16, vecmath.Float32} {
		dim := 100
		q := make([]float32, dim)
		for d := range q {
			switch elem {
			case vecmath.Uint8:
				q[d] = float32(r.Intn(256))
			case vecmath.Int8:
				q[d] = float32(r.Intn(256) - 128)
			default:
				q[d] = elem.Quantize(float32(r.NormFloat64()))
			}
		}
		q[7] = float32(math.Copysign(0, -1)) // a float −0 travels as −0
		chunks, err := ndp.EncodeQueryChunks(elem, q)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ndp.DecodeQuery(elem, dim, chunks)
		if err != nil {
			t.Fatal(err)
		}
		for d := range q {
			want := q[d]
			if elem == vecmath.Uint8 || elem == vecmath.Int8 {
				want += 0 // integer zeros have no sign
			}
			if math.Float32bits(back[d]) != math.Float32bits(want) {
				t.Fatalf("%v: query[%d] %v -> %v", elem, d, q[d], back[d])
			}
		}
	}
	// 1 kB QSHR limit.
	if _, err := ndp.EncodeQueryChunks(vecmath.Float32, make([]float32, 300)); err == nil {
		t.Error("oversized query should fail")
	}
	// A component the element type cannot hold is refused, not converted.
	nan := float32(math.NaN())
	for _, c := range []struct {
		elem vecmath.ElemType
		v    float32
	}{
		{vecmath.Uint8, 300}, {vecmath.Uint8, 300.7}, {vecmath.Int8, -129},
		{vecmath.Float16, 1e6}, {vecmath.Float16, nan}, {vecmath.BFloat16, nan}, {vecmath.Float32, nan},
	} {
		q := []float32{1, c.v, 2}
		if _, err := ndp.EncodeQueryChunks(c.elem, q); err == nil {
			t.Errorf("%v: component %v encoded", c.elem, c.v)
		}
	}
}

// TestDecodeQueryRejectsNonFinite: a set-query payload whose row holds an
// Inf or NaN component is a bad field, as a NaN threshold is.
func TestDecodeQueryRejectsNonFinite(t *testing.T) {
	for _, c := range []struct {
		elem vecmath.ElemType
		bits []byte
	}{
		{vecmath.Float16, []byte{0x00, 0x7c}},             // +Inf
		{vecmath.Float16, []byte{0x01, 0xfe}},             // NaN
		{vecmath.BFloat16, []byte{0x80, 0xff}},            // −Inf
		{vecmath.BFloat16, []byte{0xc1, 0x7f}},            // NaN
		{vecmath.Float32, []byte{0x01, 0x00, 0xc0, 0x7f}}, // NaN
	} {
		var chunk [64]byte
		copy(chunk[c.elem.Bytes():], c.bits)
		_, err := ndp.DecodeQuery(c.elem, 2, [][64]byte{chunk})
		var pe *ndp.ProtocolError
		if !errors.As(err, &pe) || !errors.Is(err, ndp.ErrBadField) {
			t.Errorf("%v % x: err %v, want a *ProtocolError wrapping ErrBadField", c.elem, c.bits, err)
		}
	}
}

func TestPollResponseRoundTrip(t *testing.T) {
	r := ndp.PollResponse{DoneMask: 0xA5, FetchCnt: 777, Completed: true, FaultMask: 0x03}
	for i := range r.Dist {
		r.Dist[i] = float32(i) * 1.25
	}
	if got := ndp.DecodePollResponse(r.Encode()); got != r {
		t.Fatalf("poll round trip: %+v != %+v", got, r)
	}
}

// TestPayloadCountsMatchTimingModel pins the protocol's payload counts to
// the ones the timing model charges: a set-search carries
// NDPParams.TasksPerSetSearch tasks, and a query installs in one set-query
// chunk per line of its row (rows.Lines, NewModel's QueryLines).
func TestPayloadCountsMatchTimingModel(t *testing.T) {
	if want := sim.DefaultNDP().TasksPerSetSearch; ndp.TasksPerQSHR != want {
		t.Fatalf("TasksPerQSHR = %d, timing model charges %d tasks per set-search", ndp.TasksPerQSHR, want)
	}
	if _, n, err := ndp.EncodeSetSearch(make([]ndp.Task, ndp.TasksPerQSHR)); err != nil || n != ndp.TasksPerQSHR {
		t.Fatalf("full set-search: %d tasks, %v", n, err)
	}
	for _, elem := range []vecmath.ElemType{vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.BFloat16, vecmath.Float32} {
		widest := ndp.QueryFieldBytes / elem.Bytes()
		for _, dim := range []int{1, 7, 16, 63, 64, 65, 100, 128, 200, widest - 1, widest} {
			if dim > widest {
				continue
			}
			chunks, err := ndp.EncodeQueryChunks(elem, make([]float32, dim))
			if err != nil {
				t.Fatalf("%v dim %d: %v", elem, dim, err)
			}
			if want := rows.Lines(elem, dim); len(chunks) != want {
				t.Errorf("%v dim %d: %d set-query chunks, timing model charges %d lines", elem, dim, len(chunks), want)
			}
		}
	}
}

// TestUnitMatchesETEngine is the hardware-interface validation: driving a
// Unit purely through DDR-encoded instructions produces the same decisions
// and distances as the software ETEngine.
func TestUnitMatchesETEngine(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 300, 6, 17)
	sched := bitplane.DualSchedule(p.Elem, 0, 8, 1, 4)
	st, err := core.BuildStore(ds.Rows(), sched, prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.NewETEngine(p.Metric)

	// Mirror the transformed bytes into the rank slab.
	l := st.Layout
	slab := make([]byte, len(ds.Vectors)*l.VectorBytes())
	var codes []uint32
	for i, v := range ds.Vectors {
		codes = p.Elem.EncodeVector(v, codes[:0])
		l.Transform(codes, slab[i*l.VectorBytes():(i+1)*l.VectorBytes()])
	}
	u := ndp.NewUnit(ndp.SliceRank{Bytes: slab, VectorBytes: l.VectorBytes()})
	if err := u.Configure(ndp.EncodeConfigure(ndp.Config{
		Elem: p.Elem, Dim: uint16(p.Dim), Metric: p.Metric,
		Nc: 8, Tc: 1, Nf: 4,
	})); err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(23)
	for qi, q := range ds.Queries {
		eng.StartQuery(q)
		chunks, err := ndp.EncodeQueryChunks(p.Elem, q)
		if err != nil {
			t.Fatal(err)
		}
		id := qi % ndp.NumQSHRs

		// Build a full payload's worth of tasks with float32-exact thresholds.
		var tasks []ndp.Task
		for len(tasks) < ndp.TasksPerQSHR {
			addr := uint32(rng.Intn(len(ds.Vectors)))
			th := float32(p.Metric.Distance(q, ds.Vectors[rng.Intn(len(ds.Vectors))]))
			tasks = append(tasks, ndp.Task{Addr: addr, Threshold: th})
		}
		sp, cnt, err := ndp.EncodeSetSearch(tasks)
		if err != nil {
			t.Fatal(err)
		}
		// The paper's ordering optimization: set-search first, then query.
		if err := u.SetSearch(id, cnt, sp); err != nil {
			t.Fatal(err)
		}
		for seq, c := range chunks {
			if err := u.SetQuery(id, seq, c); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := u.Poll(id)
		if err != nil {
			t.Fatal(err)
		}
		resp := ndp.DecodePollResponse(raw)
		want := uint8(1<<uint(cnt) - 1)
		if !resp.Completed || resp.DoneMask != want {
			t.Fatalf("QSHR not completed: %+v", resp)
		}
		if resp.FaultMask != 0 {
			t.Fatalf("fault-free run flagged faults: %+v", resp)
		}
		totalLines := 0
		for ti, task := range tasks {
			ref := eng.Compare(task.Addr, float64(task.Threshold))
			totalLines += ref.Lines
			if ref.Accepted {
				if math.Abs(float64(resp.Dist[ti])-ref.Dist) > 1e-5*math.Max(1, math.Abs(ref.Dist)) {
					t.Fatalf("q%d task %d: unit dist %v, engine %v", qi, ti, resp.Dist[ti], ref.Dist)
				}
			} else if resp.Dist[ti] != ndp.InvalidDist {
				t.Fatalf("q%d task %d: rejected task has result %v", qi, ti, resp.Dist[ti])
			}
		}
		if int(resp.FetchCnt) != totalLines {
			t.Fatalf("q%d: unit fetched %d lines, engine %d", qi, resp.FetchCnt, totalLines)
		}
		u.Free(id)
	}
}

func TestUnitErrors(t *testing.T) {
	u := ndp.NewUnit(ndp.SliceRank{})
	if err := u.SetQuery(0, 0, [64]byte{}); err == nil {
		t.Error("set-query before configure should fail")
	}
	if err := u.SetSearch(0, 1, [64]byte{}); err == nil {
		t.Error("set-search before configure should fail")
	}
	if err := u.Configure(ndp.EncodeConfigure(ndp.Config{Elem: vecmath.Uint8})); err == nil {
		t.Error("zero-dim configure should fail")
	}
	if err := u.Configure(ndp.EncodeConfigure(ndp.Config{Elem: vecmath.Uint8, Dim: 8, Nc: 4, Tc: 2, Nf: 2})); err != nil {
		t.Fatal(err)
	}
	if err := u.SetSearch(99, 1, [64]byte{}); err == nil {
		t.Error("out-of-range QSHR should fail")
	}
	if _, err := u.Poll(-1); err == nil {
		t.Error("out-of-range poll should fail")
	}
	// A query that fills the 1 kB QSHR field installs; a chunk past the
	// field, or a configure whose query could not fit it, is rejected.
	wide := ndp.Config{Elem: vecmath.Float32, Dim: ndp.QueryFieldBytes / 4, Metric: vecmath.L2}
	if err := u.Configure(ndp.EncodeConfigure(wide)); err != nil {
		t.Fatalf("1024 B query configure: %v", err)
	}
	chunks, err := ndp.EncodeQueryChunks(wide.Elem, make([]float32, wide.Dim))
	if err != nil {
		t.Fatalf("1024 B query: %v", err)
	}
	for seq, c := range chunks {
		if err := u.SetQuery(0, seq, c); err != nil {
			t.Fatalf("1024 B query chunk %d: %v", seq, err)
		}
	}
	if err := u.SetQuery(0, ndp.QueryFieldBytes/64, [64]byte{}); !errors.Is(err, ndp.ErrBadField) {
		t.Errorf("chunk %d past the query field: got %v, want ndp.ErrBadField", ndp.QueryFieldBytes/64, err)
	}
	gist := ndp.Config{Elem: vecmath.Float32, Dim: 960, Metric: vecmath.L2}
	if err := u.Configure(ndp.EncodeConfigure(gist)); !errors.Is(err, ndp.ErrBadField) {
		t.Errorf("960-dim float32 configure: got %v, want ndp.ErrBadField", err)
	}
}

// TestUnitFlagsShortData: a task whose rank data is shorter than the
// configured footprint must be reported through FaultMask, not a panic and
// not a silent bogus distance.
func TestUnitFlagsShortData(t *testing.T) {
	cfg := ndp.Config{Elem: vecmath.Uint8, Dim: 32, Metric: vecmath.L2, Nc: 4, Tc: 2, Nf: 2}
	sched := cfg.Schedule()
	l := bitplane.MustLayout(cfg.Elem, int(cfg.Dim), sched)

	// One valid vector, then an address past the end of the slab.
	q := make([]float32, cfg.Dim)
	codes := cfg.Elem.EncodeVector(q, nil)
	slab := make([]byte, l.VectorBytes())
	l.Transform(codes, slab)
	u := ndp.NewUnit(ndp.SliceRank{Bytes: slab, VectorBytes: l.VectorBytes()})
	if err := u.Configure(ndp.EncodeConfigure(cfg)); err != nil {
		t.Fatal(err)
	}
	sp, cnt, err := ndp.EncodeSetSearch([]ndp.Task{
		{Addr: 0, Threshold: 1e30},
		{Addr: 9999, Threshold: 1e30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.SetSearch(0, cnt, sp); err != nil {
		t.Fatal(err)
	}
	chunks, err := ndp.EncodeQueryChunks(cfg.Elem, q)
	if err != nil {
		t.Fatal(err)
	}
	for seq, c := range chunks {
		if err := u.SetQuery(0, seq, c); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := u.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	resp := ndp.DecodePollResponse(raw)
	if !resp.Completed || resp.DoneMask != 0b11 {
		t.Fatalf("unexpected completion state: %+v", resp)
	}
	if resp.FaultMask != 0b10 {
		t.Fatalf("FaultMask = %08b, want task 1 flagged", resp.FaultMask)
	}
	if resp.Dist[1] != ndp.InvalidDist {
		t.Fatalf("faulted task wrote a result: %v", resp.Dist[1])
	}
}
