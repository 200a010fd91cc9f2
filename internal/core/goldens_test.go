package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/fault"
	"ansmet/internal/hnsw"
	"ansmet/internal/ivf"
)

// hashRun folds everything a run produced into h: every result, every hop's
// shape, every recorded task and every field of the timing report, floats by
// their bits.
func hashRun(h hash.Hash, run *RunResult) {
	f := func(x float64) uint64 { return math.Float64bits(x) }
	for _, res := range run.Results {
		fmt.Fprintf(h, "r%d", len(res))
		for _, nb := range res {
			fmt.Fprintf(h, " %d:%x", nb.ID, f(nb.Dist))
		}
	}
	for _, q := range run.Traces {
		fmt.Fprintf(h, "\nq%d", q.NumHops())
		for i := 0; i < q.NumHops(); i++ {
			hop := q.Hop(i)
			fmt.Fprintf(h, "\nh%d %d %d", hop.Level, hop.HostOps, len(hop.Tasks))
			for _, tk := range hop.Tasks {
				r := tk.Result
				fmt.Fprintf(h, " %d %x %x %t %d %d %d", tk.ID, f(tk.Threshold), f(r.Dist),
					r.Accepted, r.Lines, r.LinesLocal, r.BackupLines)
			}
		}
	}
	rep := run.Report
	fmt.Fprintf(h, "\nlat")
	for _, x := range rep.QueryLatencyNs {
		fmt.Fprintf(h, " %x", f(x))
	}
	fmt.Fprintf(h, "\n%x %x %x %x %x %d %d %x %x %+v %v %d %x",
		f(rep.MakespanNs), f(rep.TraversalNs), f(rep.OffloadNs), f(rep.DistCompNs), f(rep.CollectNs),
		rep.EffectualLines, rep.IneffectualLines, f(rep.CoreBusyNs), f(rep.NDPBusyNs),
		rep.Mem, rep.RankTaskLines, rep.PollCount, f(rep.CoreWaitNs))
	if rs := rep.Resilience; rs != nil {
		fmt.Fprintf(h, "\n%+v", *rs)
	}
}

// modelGoldens are sha256 digests of hashRun over RunHNSW, RunHNSWParallel
// (3 workers) and RunIVF, in that order on one system, recorded at commit
// c3b3fc7 (the parent of the PR that gave the model one engine factory and
// one run loop). A digest that moves means a trace, an answer or a timing
// report moved.
var modelGoldens = map[string]string{
	"SIFT/CPU-Base":       "f7519dedc45c7057d9383111f779b5f8e581cfa6b76ddae070b9ecfccd4da96c",
	"SIFT/CPU-ET":         "dac7ccbb190cd103f302192afa3339f62e8310bc7a1cf79e2e7049bf513f21cc",
	"SIFT/CPU-ETOpt":      "0f092747e568aa64437457153b67ae225d2b8f5c23e03029e43a1c41e4511829",
	"SIFT/NDP-Base":       "1dd067e91c84d0c8f12a870fcb0c37af84ba9968d0a96cd3be9bfa81db4e2229",
	"SIFT/NDP-DimET":      "a09b9f666e47038b5b976b9e3fd018ddbd09173d7b57e0feb1f25441648ff24f",
	"SIFT/NDP-BitET":      "211c44259a1bde530be84dee66ac378a90b8a3a629e7d82c107e9598ae6f9ad9",
	"SIFT/NDP-ET":         "f669854da252d527971f00b9f0a6ab90f76971347d48e12ca173aa30de7c6270",
	"SIFT/NDP-ET+Dual":    "f669854da252d527971f00b9f0a6ab90f76971347d48e12ca173aa30de7c6270",
	"SIFT/NDP-ETOpt":      "5d881bf6956f6fe6860df1940146b0d3c52ffd8f6f1c6d75b85cbc6ce952ef34",
	"SIFT/NDP-ETOpt@0.9":  "e33eaa2d5cb8aa25a6db1ec8d228858c2abcc11f3991834d4d2534a4441a723f",
	"SIFT/NDP-ET+faults":  "6cf13830695bd24e68255dfb155ccdf593d84b28743bd3e32d455514973d499b",
	"GloVe/CPU-Base":      "b90a764a635c6011929532c22ac77a8dc187fc4a279d449ce3eac768e441743f",
	"GloVe/CPU-ET":        "0d412efc08263139cd92b5df7932ef8a8dc3ab752cece2cc21fc6ef825aa36d6",
	"GloVe/CPU-ETOpt":     "324b1cf292b45bbb4aa159e103c502e29e6596ca8c0e4dfd1f3126623db92ee8",
	"GloVe/NDP-Base":      "8381b3385bff19424c2169209b431014d6c5845c281b418569b34333b6396eec",
	"GloVe/NDP-DimET":     "8381b3385bff19424c2169209b431014d6c5845c281b418569b34333b6396eec",
	"GloVe/NDP-BitET":     "b4af0c10dc3aba7b28b6d8e60ba75fd6fd3b877fc1c1b9fb640cadab80c0c0c5",
	"GloVe/NDP-ET":        "2c93f6b462a6fe24ea103388b49d502003d54e721e8a281b9b50433ab45c9b5a",
	"GloVe/NDP-ET+Dual":   "53a466cabab6b5f5875d961ad9d6798cee923af17ab8328140161ce5aae74dfe",
	"GloVe/NDP-ETOpt":     "53a466cabab6b5f5875d961ad9d6798cee923af17ab8328140161ce5aae74dfe",
	"GloVe/NDP-ETOpt@0.9": "e12e6fc411d111091062551732998f9a3264818ede491cb267bac1c1cb933e35",
	"GloVe/NDP-ET+faults": "3cba940e364314dec2b8e1d411df74560003f8931811aedec7eedc05cc314d8d",
}

func TestModelGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; another architecture may fuse or round differently")
	}
	check := func(name string, sys *System, ds *dataset.Dataset, vx *ivf.Index) {
		h := sha256.New()
		hashRun(h, sys.RunHNSW(ds.Queries, 10, 40))
		hashRun(h, sys.RunHNSWParallel(ds.Queries, 10, 40, 3))
		hashRun(h, sys.RunIVF(vx, ds.Queries, 10, 10, 4))
		got := hex.EncodeToString(h.Sum(nil))
		if want, ok := modelGoldens[name]; !ok {
			t.Errorf("no golden for %q: got %s", name, got)
		} else if got != want {
			t.Errorf("%s: digest %s, recorded %s", name, got, want)
		}
	}
	for _, pop := range []string{"SIFT", "GloVe"} {
		p := dataset.ProfileByName(pop)
		ds := dataset.Generate(p, 400, 8, 101)
		ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		vx, err := ivf.Build(ds.Vectors, p.Metric, ivf.Config{NumClusters: 16, MaxIters: 6, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		build := func(cfg SystemConfig) *System {
			cfg.SampleSize = 60
			sys, err := NewSystem(ds.Rows(), p.Metric, ix, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", pop, cfg.Design, err)
			}
			return sys
		}
		for _, d := range AllDesigns {
			check(pop+"/"+d.String(), build(DefaultSystemConfig(d)), ds, vx)
		}
		// The pre-calibration adaptive-precision wiring of the beam engines.
		adaptive := DefaultSystemConfig(NDPETOpt)
		adaptive.RecallTarget = 0.9
		check(pop+"/NDP-ETOpt@0.9", build(adaptive), ds, vx)
		// A fault schedule: injection order, retries, the breaker trip on the
		// crashed rank and the counters' per-run deltas are part of the result.
		faulty := DefaultSystemConfig(NDPET)
		faulty.Fault = &fault.Schedule{Seed: 13, Rules: []fault.Rule{
			{Kind: fault.CorruptPayload, Rank: -1, Op: -1, Prob: 0.1},
			{Kind: fault.DropPoll, Rank: -1, Prob: 0.05},
			{Kind: fault.RankCrash, Rank: 0, After: 40},
		}}
		faulty.Resilience = engine.ResilienceConfig{MaxRetries: 1, FailureThreshold: 4, ProbeAfter: 32}
		fs := build(faulty)
		check(pop+"/NDP-ET+faults", fs, ds, vx)
		if c := fs.Faults.Snapshot(); fs.Injector.TotalInjections() == 0 || c.Fallbacks == 0 || c.BreakerTrips == 0 {
			t.Errorf("%s: vacuous fault case: %d injections, %+v", pop, fs.Injector.TotalInjections(), c)
		}
	}
}
