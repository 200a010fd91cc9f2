package prefixelim

import (
	"math"
	"testing"

	"ansmet/internal/bitplane"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
	}
	for _, c := range cases {
		if got := bitsFor(c.n); got != c.want {
			t.Errorf("bitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	// Paper's Fig. 4(c) example: V2 prefix 1111 vs common 1100 -> 2 bits.
	if got := commonPrefixLen(0b1111, 0b1100, 4); got != 2 {
		t.Errorf("fig4 example match len = %d, want 2", got)
	}
	if got := commonPrefixLen(0b1010, 0b1010, 4); got != 4 {
		t.Errorf("identical = %d, want 4", got)
	}
	if got := commonPrefixLen(0b0, 0b1000, 4); got != 0 {
		t.Errorf("mismatch at MSB = %d, want 0", got)
	}
}

func TestAnalyzePicksPrefix(t *testing.T) {
	// All uint8 codes in [0x90, 0x9F] share a 4-bit prefix 0x9.
	r := stats.NewRNG(1)
	var samples [][]uint32
	for i := 0; i < 100; i++ {
		v := make([]uint32, 32)
		for d := range v {
			v[d] = 0x90 | uint32(r.Intn(16))
		}
		samples = append(samples, v)
	}
	l, val := Analyze(vecmath.Uint8, 32, samples, 0.001)
	if l < 3 || val != 0x9>>uint(4-l) && l == 4 && val != 0x9 {
		t.Errorf("Analyze = (%d, %#x), want prefix covering 0x9x", l, val)
	}
	if l == 4 && val != 0x9 {
		t.Errorf("prefix value %#x, want 0x9", val)
	}
}

func TestAnalyzeOutlierBudget(t *testing.T) {
	// 5% of elements break the 4-bit prefix; a 5% budget accepts it, a
	// 0.1% budget must choose a shorter (or zero) prefix.
	r := stats.NewRNG(2)
	var samples [][]uint32
	for i := 0; i < 100; i++ {
		v := make([]uint32, 20)
		for d := range v {
			if r.Float64() < 0.05 {
				v[d] = uint32(r.Intn(256))
			} else {
				v[d] = 0xA0 | uint32(r.Intn(16))
			}
		}
		samples = append(samples, v)
	}
	lTight, _ := Analyze(vecmath.Uint8, 20, samples, 0.001)
	lLoose, valLoose := Analyze(vecmath.Uint8, 20, samples, 0.10)
	if lLoose < 4 || valLoose != 0xA {
		t.Errorf("loose budget chose (%d,%#x), want (>=4,0xA)", lLoose, valLoose)
	}
	if lTight >= lLoose {
		t.Errorf("tight budget prefix %d should be shorter than loose %d", lTight, lLoose)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	l, v := Analyze(vecmath.Uint8, 8, nil, 0.001)
	if l != 0 || v != 0 {
		t.Errorf("empty sample should disable elimination, got (%d,%#x)", l, v)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Elem: vecmath.Uint8, Dim: 16, PrefixLen: 3, PrefixVal: 0x5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Elem: vecmath.Uint8, Dim: 0, PrefixLen: 0},
		{Elem: vecmath.Uint8, Dim: 4, PrefixLen: 8},
		{Elem: vecmath.Uint8, Dim: 4, PrefixLen: 2, PrefixVal: 0x7},
		{Elem: vecmath.Uint8, Dim: 4, PrefixLen: 5, PrefixVal: 0}, // no payload room
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v should be invalid", i, c)
		}
	}
}

func TestSpaceSaved(t *testing.T) {
	c := Config{Elem: vecmath.Int8, Dim: 100, PrefixLen: 3, PrefixVal: 0x4}
	// Paper Table 5: 3 of 8 bits on SPACEV saves 37.5% (ignoring the 1 bit).
	if got := c.SpaceSavedBits(); got != 299 {
		t.Errorf("SpaceSavedBits = %d, want 299", got)
	}
}

func TestSuffixCodesRoundTrip(t *testing.T) {
	c := Config{Elem: vecmath.Uint8, Dim: 4, PrefixLen: 4, PrefixVal: 0x9}
	codes := []uint32{0x90, 0x95, 0x9A, 0x9F}
	suffix := c.SuffixCodes(codes, nil)
	want := []uint32{0x0, 0x5, 0xA, 0xF}
	for i := range want {
		if suffix[i] != want[i] {
			t.Fatalf("suffix = %v, want %v", suffix, want)
		}
	}
}

func TestSuffixCodesPanicsOnOutlier(t *testing.T) {
	c := Config{Elem: vecmath.Uint8, Dim: 1, PrefixLen: 4, PrefixVal: 0x9}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on outlier vector")
		}
	}()
	c.SuffixCodes([]uint32{0x10}, nil)
}

func TestIsNormalVector(t *testing.T) {
	c := Config{Elem: vecmath.Uint8, Dim: 3, PrefixLen: 2, PrefixVal: 0x2}
	if !c.IsNormalVector([]uint32{0x80, 0x9F, 0xA0}) {
		t.Error("all-prefix vector should be normal")
	}
	if c.IsNormalVector([]uint32{0x80, 0x00, 0xA0}) {
		t.Error("vector with mismatching element should be outlier")
	}
	off := Config{Elem: vecmath.Uint8, Dim: 3}
	if !off.IsNormalVector([]uint32{1, 2, 3}) {
		t.Error("disabled elimination treats everything as normal")
	}
}

// encodeDecodeIntervalCheck verifies the outlier codec yields intervals
// containing the original values.
func TestOutlierEncodeIntervalsContainValues(t *testing.T) {
	r := stats.NewRNG(3)
	for _, et := range []vecmath.ElemType{vecmath.Uint8, vecmath.Int8, vecmath.Float32} {
		w := et.Bits()
		for trial := 0; trial < 50; trial++ {
			p := 2 + r.Intn(3)
			cfg := Config{Elem: et, Dim: 24, PrefixLen: p,
				PrefixVal: uint32(r.Intn(1 << uint(p)))}
			if cfg.Validate() != nil {
				continue
			}
			codes := make([]uint32, cfg.Dim)
			for d := range codes {
				if r.Float64() < 0.7 {
					// Element matching prefix.
					codes[d] = cfg.PrefixVal<<uint(w-p) | uint32(r.Uint64())&(1<<uint(w-p)-1)
				} else {
					codes[d] = uint32(r.Uint64()) & (1<<uint(w) - 1)
				}
			}
			buf := make([]byte, cfg.OutlierLines()*bitplane.LineBytes)
			cfg.EncodeOutlier(codes, buf)
			lo := make([]float64, cfg.Dim)
			hi := make([]float64, cfg.Dim)
			cfg.DecodeOutlierIntervals(buf, lo, hi)
			for d := range codes {
				v := et.Decode(codes[d])
				if v < lo[d] || v > hi[d] {
					t.Fatalf("%v p=%d: value %v (code %#x) outside [%v,%v] at dim %d",
						et, p, v, codes[d], lo[d], hi[d], d)
				}
			}
		}
	}
}

func TestOutlierBounderSound(t *testing.T) {
	r := stats.NewRNG(4)
	et := vecmath.Uint8
	cfg := Config{Elem: et, Dim: 64, PrefixLen: 3, PrefixVal: 0x5}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
		b := NewOutlierBounder(cfg, m)
		q := make([]float32, cfg.Dim)
		for d := range q {
			q[d] = float32(r.Intn(256))
		}
		b.ResetQuery(q)
		for trial := 0; trial < 30; trial++ {
			v := make([]float32, cfg.Dim)
			codes := make([]uint32, cfg.Dim)
			for d := range v {
				v[d] = float32(r.Intn(256))
				codes[d] = et.Encode(v[d])
			}
			buf := make([]byte, cfg.OutlierLines()*bitplane.LineBytes)
			cfg.EncodeOutlier(codes, buf)
			want := m.Distance(q, v)
			b.Reset()
			prev := math.Inf(-1)
			for i := 0; i < b.Lines(); i++ {
				lb := b.ConsumeNext(buf[i*bitplane.LineBytes : (i+1)*bitplane.LineBytes])
				if lb > want+1e-9 {
					t.Fatalf("%v: outlier LB %v exceeds true %v", m, lb, want)
				}
				if lb < prev-1e-9 {
					t.Fatalf("%v: LB decreased %v -> %v", m, prev, lb)
				}
				prev = lb
			}
		}
	}
}

func TestOutlierBounderETNeverFalseRejects(t *testing.T) {
	r := stats.NewRNG(5)
	et := vecmath.Int8
	cfg := Config{Elem: et, Dim: 40, PrefixLen: 2, PrefixVal: 0x2}
	b := NewOutlierBounder(cfg, vecmath.L2)
	q := make([]float32, cfg.Dim)
	for d := range q {
		q[d] = float32(r.Intn(256) - 128)
	}
	b.ResetQuery(q)
	for trial := 0; trial < 100; trial++ {
		v := make([]float32, cfg.Dim)
		codes := make([]uint32, cfg.Dim)
		for d := range v {
			v[d] = float32(r.Intn(256) - 128)
			codes[d] = et.Encode(v[d])
		}
		buf := make([]byte, cfg.OutlierLines()*bitplane.LineBytes)
		cfg.EncodeOutlier(codes, buf)
		want := vecmath.L2.Distance(q, v)
		th := want * (0.5 + r.Float64())
		b.Reset()
		lb, lines := b.RunTo(buf, th, b.Lines())
		if lines < b.Lines() && want <= th {
			t.Fatalf("false reject: true %v <= th %v (lb %v)", want, th, lb)
		}
	}
}

// TestNormalPathLossless: normal vectors (prefix + suffix) reconstruct the
// exact distance through the bitplane bounder with the prefix configured.
func TestNormalPathLossless(t *testing.T) {
	r := stats.NewRNG(6)
	et := vecmath.Uint8
	cfg := Config{Elem: et, Dim: 32, PrefixLen: 4, PrefixVal: 0xB}
	sched := bitplane.UniformSchedule(et, cfg.PrefixLen, 2)
	l := bitplane.MustLayout(et, cfg.Dim, sched)
	b := bitplane.NewBounder(l, vecmath.L2, cfg.PrefixVal)
	gen := func() ([]float32, []uint32) {
		v := make([]float32, cfg.Dim)
		codes := make([]uint32, cfg.Dim)
		for d := range v {
			v[d] = float32(0xB0 + r.Intn(16))
			codes[d] = et.Encode(v[d])
		}
		return v, codes
	}
	q, _ := gen()
	b.ResetQuery(q)
	for trial := 0; trial < 20; trial++ {
		v, codes := gen()
		if !cfg.IsNormalVector(codes) {
			t.Fatal("generated vector should be normal")
		}
		suffix := cfg.SuffixCodes(codes, nil)
		buf := make([]byte, l.VectorBytes())
		l.Transform(suffix, buf)
		b.Reset()
		lb, _ := b.RunET(buf, math.Inf(1))
		want := vecmath.L2.Distance(q, v)
		if math.Abs(lb-want) > 1e-9 {
			t.Fatalf("normal path distance %v != %v", lb, want)
		}
	}
}

func TestOutlierSavesLinesVersusPlain(t *testing.T) {
	// With a 3-bit prefix on uint8, slots are 5 bits; 100 dims fit
	// ceil(100/102)=1 line vs plain ceil(100/64)=2 lines.
	cfg := Config{Elem: vecmath.Uint8, Dim: 100, PrefixLen: 3, PrefixVal: 0}
	if cfg.OutlierLines() != 1 {
		t.Errorf("outlier lines = %d, want 1", cfg.OutlierLines())
	}
}
