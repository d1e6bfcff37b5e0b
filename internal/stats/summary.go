package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample. Experiment reports use
// it for the mean ± stddev columns and min/avg/max series of Figs 3, 5, 6.
type Summary struct {
	N              int
	Mean, Stddev   float64
	Min, Max       float64
	Median         float64
	P25, P75, P95  float64
	Sum            float64
	Variance       float64
	StderrOfMean   float64
	CoefOfVariance float64
}

// Summarize computes descriptive statistics of v. It returns a zero Summary
// for an empty sample.
func Summarize(v []float64) Summary {
	var s Summary
	s.N = len(v)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	for _, x := range v {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	ss := 0.0
	for _, x := range v {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Variance = ss / float64(s.N-1)
		s.Stddev = math.Sqrt(s.Variance)
		s.StderrOfMean = s.Stddev / math.Sqrt(float64(s.N))
	}
	if s.Mean != 0 {
		s.CoefOfVariance = s.Stddev / math.Abs(s.Mean)
	}
	s.Median = Percentile(sorted, 50)
	s.P25 = Percentile(sorted, 25)
	s.P75 = Percentile(sorted, 75)
	s.P95 = Percentile(sorted, 95)
	return s
}

// Percentile returns the p-th percentile (0–100) of an ascending-sorted
// sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Welford maintains running mean and variance in a single pass. The
// monitor's drift detector keeps its error baseline in one, to spot mean
// shifts (Sec. 3.1).
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the running sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }
