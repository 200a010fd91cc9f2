package main

import (
	"math"
	"testing"

	"ansmet/internal/core"
	"ansmet/internal/partition"
	"ansmet/internal/polling"
)

// defaults are the flags' default values.
func defaults() options {
	return options{
		profile: "DEEP", design: "NDP-ETOpt", scheme: "hybrid", poll: "conventional",
		n: 4000, nq: 32, stream: 96, k: 10, ef: 60, efc: 120,
		channels: 4, dimms: 2, ranks: 4, sub: 1024, batch: 8,
		pollNs: 100, seed: 2025,
	}
}

// TestCheckFlags: the counts no run can be made of are usage errors — a
// zero -q once looped forever, a zero -stream printed NaN rows and a zero -n
// panicked — and so is a profile that does not exist, which panicked too.
// So are a placement without ranks or with a sub-vector below one line,
// which failed only after the build, a polling interval that is not
// positive, which silently ran at 100 ns, and an unknown design, scheme or
// policy, which died after the build; a zero -efc died after generating.
// One vector is a database, and a
// design resolves to the one named.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(o *options)
		ok   bool
	}{
		{"defaults", func(o *options) {}, true},
		{"CPU-Base", func(o *options) { o.design = "CPU-Base" }, true},
		{"n 1", func(o *options) { o.n = 1 }, true},
		{"n 2, ef = k", func(o *options) { o.n, o.ef = 2, 10 }, true},
		{"ef = k", func(o *options) { o.n, o.nq, o.stream, o.k, o.ef = 1, 1, 1, 5, 5 }, true},
		{"q 0", func(o *options) { o.nq = 0 }, false},
		{"q negative", func(o *options) { o.nq = -1 }, false},
		{"stream 0", func(o *options) { o.stream = 0 }, false},
		{"k 0", func(o *options) { o.k = 0 }, false},
		{"ef below k", func(o *options) { o.ef = 9 }, false},
		{"efc 0", func(o *options) { o.efc = 0 }, false},
		{"efc negative", func(o *options) { o.efc = -1 }, false},
		{"n 0", func(o *options) { o.n = 0 }, false},
		{"n negative", func(o *options) { o.n = -5 }, false},
		{"unknown profile", func(o *options) { o.profile = "Nope" }, false},
		{"channels 0", func(o *options) { o.channels = 0 }, false},
		{"dimms negative", func(o *options) { o.dimms = -2 }, false},
		{"ranks negative", func(o *options) { o.ranks = -1 }, false},
		{"sub below a line", func(o *options) { o.sub = 63 }, false},
		{"sub one line", func(o *options) { o.sub = 64 }, true},
		{"pollns 0", func(o *options) { o.pollNs = 0 }, false},
		{"pollns negative", func(o *options) { o.pollNs = -1 }, false},
		{"pollns NaN", func(o *options) { o.pollNs = math.NaN() }, false},
		{"pollns +Inf", func(o *options) { o.pollNs = math.Inf(1) }, false},
		{"unknown design", func(o *options) { o.design = "NDP-Nope" }, false},
		{"unknown scheme", func(o *options) { o.scheme = "diagonal" }, false},
		{"unknown poll", func(o *options) { o.poll = "psychic" }, false},
		{"vertical, 2 ranks, adaptive", func(o *options) { o.scheme, o.sub, o.ranks, o.poll = "vertical", 256, 2, "adaptive" }, true},
	} {
		o := defaults()
		c.edit(&o)
		p, d, _, err := checkFlags(o)
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && (p.Name != o.profile || d.String() != o.design) {
			t.Errorf("%s: profile %s, design %v; want %s, %s", c.name, p.Name, d, o.profile, o.design)
		}
	}
}

// TestCheckFlagsResolves: the names and the placement reach the design, the
// model's configuration and its polling policy.
func TestCheckFlagsResolves(t *testing.T) {
	o := defaults()
	o.design, o.scheme, o.sub, o.ranks, o.pollNs = "CPU-ET", "vertical", 256, 2, 250
	_, d, cfg, err := checkFlags(o)
	if err != nil {
		t.Fatal(err)
	}
	if d != core.CPUET || cfg.Scheme != partition.Vertical || cfg.SubVectorBytes != 256 ||
		cfg.Mem.Ranks() != 4*2*2 || cfg.Poll != (polling.Conventional{IntervalNs: 250}) {
		t.Errorf("resolved %v, %+v", d, cfg)
	}
	o.poll = "adaptive"
	if _, _, cfg, _ = checkFlags(o); cfg.Poll != (polling.Adaptive{}) {
		t.Errorf("adaptive resolved to %#v", cfg.Poll)
	}
}
