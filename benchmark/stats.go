package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted values by
// nearest rank: the smallest value with at least p% of the sample at or
// below it. An empty sample gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the middle value, or the mean of the two middle values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ms converts durations to sorted milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// sample is one completed operation: when it finished, measured from the
// start of the phase, and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// windowRates splits [0, total) into n equal windows, counts the
// operations that finished in each, and returns each window's rate per
// second. Throughput is reported as the median window: a few windows
// stretched by a collection or a compaction do not move it.
func windowRates(samples []sample, total time.Duration, n int) []float64 {
	if n < 1 || total <= 0 {
		return nil
	}
	counts := make([]float64, n)
	width := total / time.Duration(n)
	for _, s := range samples {
		w := int(s.at / width)
		if w >= 0 && w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return counts
}

// spread summarises repeated measurements of one metric the way the
// acceptance rule reads them: the interquartile range as a share of the
// median.
type spread struct {
	median, q1, q3, share float64
}

// quartiles uses the exclusive method (Python's statistics.quantiles
// default): the quartile positions are (n+1)/4, 2(n+1)/4 and 3(n+1)/4,
// interpolated linearly and clamped to the sample.
func quartiles(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return spread{}
	}
	at := func(q float64) float64 {
		pos := q*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	sp := spread{median: at(0.5), q1: at(0.25), q3: at(0.75)}
	if sp.median != 0 {
		sp.share = (sp.q3 - sp.q1) / math.Abs(sp.median)
	}
	return sp
}
