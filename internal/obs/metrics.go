// Package obs is the simulation stack's observability and self-audit
// layer: a stdlib-only metrics registry (counters, gauges, fixed-bucket
// histograms), a per-run SimStats collector implementing sim.Observer, and
// an invariant auditor that validates the engine's internal consistency
// after every event. High-fidelity simulators live or die on validation
// against invariants; this package turns silent state drift (stale heap
// entries, broken work conservation, unfair pops) into loud failures and
// exportable numbers.
//
// Everything here is deterministic for a fixed simulation: exports sort
// by name/label, and wall-clock measurements are segregated so the
// deterministic surface is byte-identical across worker counts.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increases the counter; negative deltas are rejected.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("obs: counter decreased")
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a point-in-time metric that also tracks its maximum.
type Gauge struct {
	mu      sync.Mutex
	v, max  float64
	everSet bool
}

// Set records the current value (and the running maximum).
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	if !g.everSet || v > g.max {
		g.max = v
	}
	g.everSet = true
	g.mu.Unlock()
}

// Value returns the last set value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max returns the largest value ever set.
func (g *Gauge) Max() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations ≤ Bounds[i]; one implicit overflow bucket counts the rest.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// ExpBuckets returns n bounds starting at start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: bad exponential bucket spec")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// HistogramSnapshot is an exportable view of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra overflow
	// entry.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	N      int64     `json:"n"`
}

// Mean returns the mean observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket holding the target rank, assuming non-negative
// observations (the first bucket interpolates from zero). An empty
// histogram returns 0. Ranks falling into the overflow bucket return the
// last bound — the histogram cannot see beyond it, so the estimate is a
// lower bound there.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.N)
	var cum float64
	for i, b := range s.Bounds {
		c := float64(s.Counts[i])
		if cum+c >= target && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			frac := (target - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(b-lo)
		}
		cum += c
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Sum:    h.sum,
		N:      h.n,
	}
}

// Registry is a named collection of metrics. Lookups create on first use;
// Snapshot renders everything sorted by name, so its output is
// deterministic regardless of registration or update order.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; bounds are
// used only on first creation.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// MetricPoint is one exported metric.
type MetricPoint struct {
	Name  string             `json:"name"`
	Kind  string             `json:"kind"` // "counter" | "gauge" | "histogram"
	Value float64            `json:"value,omitempty"`
	Max   float64            `json:"max,omitempty"`
	Hist  *HistogramSnapshot `json:"hist,omitempty"`
}

// Snapshot renders every metric, sorted by (kind, name).
func (r *Registry) Snapshot() []MetricPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []MetricPoint
	for name, c := range r.counters {
		out = append(out, MetricPoint{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, MetricPoint{Name: name, Kind: "gauge", Value: g.Value(), Max: g.Max()})
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		out = append(out, MetricPoint{Name: name, Kind: "histogram", Hist: &s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// round9 trims float noise for stable human-facing exports where exactness
// is not load-bearing (never applied to determinism-checked fields).
func round9(v float64) float64 {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Round(v*1e9) / 1e9
}
