package main

import (
	"math"
	"sort"
	"time"
)

// beyond is how many samples must lie past a percentile before it is
// reported: fewer and the number is one or two outliers, not a tail.
const beyond = 10

// topPercentile returns the highest of p50, p90, p99, p99.9 that still has
// at least `beyond` samples past it, as a fraction (0 when even the median
// has too few).
func topPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 990, 999} {
		if n*(1000-permille) >= beyond*1000 { // integers: 100 × (1 − 0.9) is not quite 10 in floating point
			best = float64(permille) / 1000
		}
	}
	return best
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks; q outside [0,1] is clamped.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver uses to judge a metric's spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// steadiness figure a bound is compared against.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// latencies collects one kind of call's durations for one client.
type latencies []time.Duration

func (l latencies) ms() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// segments is how many equal slices of a timed phase are summarised
// separately; a slice still has to hold enough samples for its own p99.
const segments = 5

// secondBest picks what a run reports from its slices' values: the
// second-lowest (the lower quartile of five), or for a rate the
// second-highest. The host this runs on stalls a virtual CPU for
// milliseconds about once a second and slows down for minutes at a time;
// such interference only ever makes a slice worse, never better, so the
// better slices are the ones that measured the program. A change in the
// program moves every slice and so moves this too. The very best slice is
// not used: it can be a lucky one that saw no stall at all.
func secondBest(per []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(sortedCopy(per), 0.75)
	}
	return quantile(sortedCopy(per), 0.25)
}

// segmentQuantile is the q-quantile of a call's latency, taken slice by
// slice: each client's samples are in time order, so slice k is the k-th
// fifth of every client's samples pooled. The second-best slice's value is
// returned. Too few samples for sliced percentiles fall back to one pool.
func segmentQuantile(parts []latencies, q float64) float64 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if topPercentile(total/segments) < q {
		var all []float64
		for _, p := range parts {
			all = append(all, p.ms()...)
		}
		return quantile(sortedCopy(all), q)
	}
	per := make([]float64, 0, segments)
	for k := 0; k < segments; k++ {
		var pool []float64
		for _, p := range parts {
			pool = append(pool, p[k*len(p)/segments:(k+1)*len(p)/segments].ms()...)
		}
		per = append(per, quantile(sortedCopy(pool), q))
	}
	return secondBest(per, false)
}

// segmentRate is events per second, taken over `segments` equal windows of
// [0, wall] and reported as the second-best window's rate.
func segmentRate(at latencies, wall time.Duration) float64 {
	if len(at) < segments*beyond || wall <= 0 {
		return float64(len(at)) / wall.Seconds()
	}
	counts := make([]float64, segments)
	for _, t := range at {
		k := int(int64(t) * segments / int64(wall))
		if k >= segments {
			k = segments - 1
		}
		counts[k]++
	}
	window := wall.Seconds() / segments
	for i := range counts {
		counts[i] /= window
	}
	return secondBest(counts, true)
}
