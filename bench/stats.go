package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p <= 1) of xs by the nearest-rank
// rule: the smallest value with at least p·len(xs) values at or below it.
// xs need not be sorted and is left untouched; an empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// byWindow splits [0, windows·width) into equal windows and groups the
// values by the window their completion offset falls in: values[i] completed
// at done[i] and lands in window floor(done[i]/width); completions at or
// past the end are dropped.
func byWindow(values []float64, done []time.Duration, windows int, width time.Duration) [][]float64 {
	groups := make([][]float64, windows)
	for i, d := range done {
		if w := int(d / width); d >= 0 && w < windows {
			groups[w] = append(groups[w], values[i])
		}
	}
	return groups
}

// floorPerQuery returns, for every distinct query that has a measurement,
// the smallest value it saw over its repetitions, in multiples of unit.
// values[i] belongs to query[i]; a negative value is no measurement.
//
// The floor is what the gated timings are built from. What disturbs a
// request on a shared machine only ever slows it, and by amounts that differ
// by half between one minute and the next; the fastest of a query's
// repetitions is the one least disturbed, and it repeats from run to run
// where a median does not (README.md, "Load shape").
func floorPerQuery(query []int, values []time.Duration, nq int, unit time.Duration) []float64 {
	best := make([]time.Duration, nq)
	for q := range best {
		best[q] = -1
	}
	for i, q := range query {
		if v := values[i]; v >= 0 && (best[q] < 0 || v < best[q]) {
			best[q] = v
		}
	}
	var out []float64
	for _, b := range best {
		if b >= 0 {
			out = append(out, float64(b)/float64(unit))
		}
	}
	return out
}

// minRepetitions is how often the least repeated of nq queries occurs.
func minRepetitions(query []int, nq int) int {
	count := make([]int, nq)
	for _, q := range query {
		count[q]++
	}
	least := count[0]
	for _, c := range count {
		least = min(least, c)
	}
	return least
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// inUnits converts durations to multiples of unit (time.Millisecond, ...).
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
