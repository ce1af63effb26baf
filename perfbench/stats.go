package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 drawn from fewer than 1000 samples would be a guess at the tail.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs: the
// smallest sample with at least a p share of the samples at or below it.
// xs need not be sorted. It also returns how many samples lie beyond.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile is percentile with the minTail rule enforced: it fails
// when the run collected too few samples to place p.
func tailPercentile(xs []float64, p float64) (float64, error) {
	v, beyond := percentile(xs, p)
	if beyond < minTail {
		return v, fmt.Errorf("p%g from %d samples has %d beyond it, want at least %d", p*100, len(xs), beyond, minTail)
	}
	return v, nil
}

// median is the middle of xs (the mean of the two middles when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// gridLatency sets p50_ms for a simulation grid from each cell's
// completion time, measured from its grid's start, and records the p99
// with the sample count. These are points of a deterministic completion
// schedule, not samples of an arrival process: the p99 is the time by
// which 99% of cells are done.
func gridLatency(r *report, lat []time.Duration) {
	xs := msAll(lat)
	p50, _ := percentile(xs, 0.50)
	p99, beyond := percentile(xs, 0.99)
	r.set("p50_ms", "ms", p50)
	r.Details["p99_ms"] = p99
	r.Details["latency_samples"] = len(xs)
	r.Details["latency_beyond_p99"] = beyond
}

// groupLatency sets p50_ms from open-loop latencies taken in groups, and
// records the p99 beside it. Each group must hold enough samples to place
// its own p99; the figures are the medians of the groups' p50s and p99s.
// The p99 is not a gated metric: see README for its run-to-run spread.
func groupLatency(r *report, groups []openResult) {
	var p50s, p99s []float64
	n := 0
	for g, res := range groups {
		var xs []float64
		for i, err := range res.Err {
			if err == nil {
				xs = append(xs, ms(res.Latency[i]))
			}
		}
		n += len(xs)
		p99, err := tailPercentile(xs, 0.99)
		if err != nil {
			r.fail("latency group %d: %v", g, err)
		}
		p50, _ := percentile(xs, 0.50)
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
	}
	r.set("p50_ms", "ms", median(p50s))
	r.Details["p99_ms"] = median(p99s)
	r.Details["latency_samples"] = n
	r.Details["latency_group_p50_ms"] = p50s
	r.Details["latency_group_p99_ms"] = p99s
}
