package ansmet_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
	"testing"

	"ansmet"
)

// layerSplit is a per-layer split of one route's CPU time: each
// CPU-profile sample whose stack holds the route's root function goes to
// the first layer found walking up from the leaf, inlined frames included
// (a frame that several prefixes match goes to the first listed). A layer
// may be named by several prefixes.
type layerSplit struct {
	name   string // the route, for the "<name>-samples" metric
	root   string
	layers []struct{ name, prefix string }
	order  []string // the layers in report order
}

// beamLayers is the per-layer split of a host-beam query. The traversal is
// what is left: the loop itself, the adjacency reads and the row
// prefetches. The frontier is every frontier method (push, and pushAll
// with its sort) and the sort's insertion pass.
var beamLayers = layerSplit{
	name: "beam",
	root: "ansmet/internal/hnsw.(*Index).SearchCancelInto",
	layers: []struct{ name, prefix string }{
		{"frontier", "ansmet/internal/hnsw.(*frontier)."},
		{"frontier", "ansmet/internal/hnsw.insertionSort"},
		{"visited", "ansmet/internal/hnsw.(*visitedSet)."},
		{"Distances", "ansmet/internal/engine.(*Exact).Distances"},
		{"traversal", "ansmet/internal/hnsw.(*Index).SearchCancelInto"},
	},
	order: []string{"traversal", "Distances", "visited", "frontier"},
}

// scanLayers is the per-layer split of an exact scan. The screen is the
// float32 pass (the kernels, the query's layout, the bound); exact is the
// float64 kernel, over a whole run while the heap fills and over each
// survivor after; the loop is what is left: the heap, the tombstones and
// the survivor bits.
var scanLayers = layerSplit{
	name: "scan",
	root: "ansmet.scanKNN",
	layers: []struct{ name, prefix string }{
		{"screen", "ansmet/internal/vecmath.screen"},
		{"screen", "ansmet/internal/engine.(*Exact).RunSurvivors"},
		{"screen", "ansmet/internal/engine.(*Exact).StartScreen"},
		{"exact", "ansmet/internal/engine.(*Exact)."},
		{"loop", "ansmet.scanKNN"},
	},
	order: []string{"screen", "exact", "loop"},
}

// reportSplit replays the b.N queries of an arm that has just been timed,
// with the timer stopped and under a CPU profile, and reports each layer's
// share of the route's samples as "<layer>-%" and their count as
// "<route>-samples"; the profiler's own work stays out of ns/op and B/op.
// With another CPU profile already running (go test -cpuprofile) it reports
// nothing.
func reportSplit(b *testing.B, ls layerSplit, db *ansmet.Database, queries [][]float32, plan ansmet.Query) {
	b.Helper()
	b.StopTimer()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		b.Logf("no per-layer split: %v", err)
		return
	}
	for i := 0; i < b.N; i++ {
		plan.Vector = queries[i%len(queries)]
		if _, err := db.Do(context.Background(), &plan); err != nil {
			pprof.StopCPUProfile()
			b.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	split, total, err := ls.split(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(total), ls.name+"-samples")
	if total == 0 {
		return
	}
	for _, l := range ls.order {
		b.ReportMetric(100*float64(split[l])/float64(total), l+"-%")
	}
}

// split attributes a gzipped pprof CPU profile's samples to the layers,
// weighting each by its sample count, and returns the per-layer counts and
// their total.
func (ls layerSplit) split(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = protoFields(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			err := protoFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, m)
				case 2:
					values = appendPacked(values, v, m)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(m, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	name := func(fn uint64) string {
		if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	split := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := ""
		inRoot := false
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				n := name(fn)
				for _, l := range ls.layers {
					if layer == "" && strings.HasPrefix(n, l.prefix) {
						layer = l.name
					}
				}
				inRoot = inRoot || n == ls.root
			}
		}
		if inRoot {
			split[layer] += s.count
			total += s.count
		}
	}
	return split, total, nil
}

// protoFields calls fn for each field of a protobuf message: v carries a
// varint or fixed value, msg a length-delimited one.
func protoFields(buf []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			msg, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errors.New("profile: unknown wire type")
		}
		if err := fn(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values: one value, or a
// packed run of them.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst
}
