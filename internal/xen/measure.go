package xen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// SoloProfile is what the TRACON monitor observes about an application when
// it runs without interference: the four controlled variables of Table 2
// plus the solo runtime and throughput used as normalization baselines.
type SoloProfile struct {
	Runtime     float64 // seconds (Inf for endless generators)
	ReadPerSec  float64 // read requests per second (feature 1)
	WritePerSec float64 // write requests per second (feature 2)
	DomUCPU     float64 // guest CPU utilization 0..1 (feature 3)
	Dom0CPU     float64 // driver-domain CPU utilization 0..1 (feature 4)
	IOPS        float64 // total request throughput
}

// Features returns the Table 2 characteristic vector
// [read/s, write/s, DomU CPU, Dom0 CPU].
func (p SoloProfile) Features() []float64 {
	return []float64{p.ReadPerSec, p.WritePerSec, p.DomUCPU, p.Dom0CPU}
}

// Measurement is one observed co-run: the target app's runtime and IOPS
// under the given interference, averaged over cfg.Runs noisy repetitions —
// the paper reports the average of three runs.
type Measurement struct {
	Runtime float64
	IOPS    float64
}

// Testbed wraps a Host with the measurement conventions of the paper:
// repeated runs, multiplicative measurement noise, deterministic seeding.
//
// A Testbed is immutable after construction and its measurements are
// key-addressed (the noise stream of every measurement is derived from the
// seed and the measurement's own name, not from call order), so a single
// Testbed is safe for concurrent use and every measurement returns the
// same bytes no matter how calls interleave across goroutines. The
// parallel evaluation engine in internal/experiments leans on exactly this
// property.
type Testbed struct {
	host  *Host
	runs  int
	sigma float64
	seed  int64
}

// NewTestbed builds a measurement harness around host. runs is the number
// of repetitions averaged per measurement (the paper uses 3); sigma is the
// per-run multiplicative noise standard deviation; seed fixes the noise
// stream.
func NewTestbed(host *Host, runs int, sigma float64, seed int64) *Testbed {
	if runs <= 0 {
		runs = 1
	}
	if sigma < 0 {
		sigma = 0
	}
	return &Testbed{host: host, runs: runs, sigma: sigma, seed: seed}
}

// Host returns the underlying host model.
func (tb *Testbed) Host() *Host { return tb.host }

// Seed returns the testbed's noise-stream seed.
func (tb *Testbed) Seed() int64 { return tb.seed }

// Clone returns an independent testbed value with the same host, run count,
// noise level and seed. Because measurement noise is key-addressed, a clone
// reproduces the original's measurements bit-for-bit; per-worker clones let
// the parallel profiler keep a testbed value per goroutine without sharing
// anything mutable (and without changing a single output byte relative to
// the sequential run).
func (tb *Testbed) Clone() *Testbed {
	c := *tb
	return &c
}

// ProfileSolo measures an application running alone (the other VM idle).
func (tb *Testbed) ProfileSolo(app AppSpec) (SoloProfile, error) {
	st, err := tb.host.Steady([]AppSpec{app})
	if err != nil {
		return SoloProfile{}, err
	}
	s := st[0]
	return SoloProfile{
		Runtime:     s.Runtime,
		ReadPerSec:  s.ReadPerSec,
		WritePerSec: s.WritePerSec,
		DomUCPU:     s.GuestCPU,
		Dom0CPU:     s.Dom0CPU,
		IOPS:        s.IOPS,
	}, nil
}

// MeasureAgainstBackground measures target while bg runs continuously in
// the other VM — the paper's profiling procedure (Sec. 3.1). The target
// sees constant interference for its whole run, so one steady-state solve
// suffices. The result carries measurement noise averaged over tb.runs.
func (tb *Testbed) MeasureAgainstBackground(target, bg AppSpec) (Measurement, error) {
	if target.Endless {
		return Measurement{}, fmt.Errorf("xen: target %q must be finite", target.Name)
	}
	st, err := tb.host.Steady([]AppSpec{target, bg})
	if err != nil {
		return Measurement{}, err
	}
	return tb.noisy(target.Name+"|"+bg.Name, st[0].Runtime, st[0].IOPS), nil
}

// noisy applies tb.runs repetitions of multiplicative Gaussian noise and
// averages, seeding deterministically from the measurement key so repeated
// experiments reproduce exactly.
func (tb *Testbed) noisy(key string, runtime, iops float64) Measurement {
	if tb.sigma == 0 {
		return Measurement{Runtime: runtime, IOPS: iops}
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	rng := rand.New(rand.NewSource(tb.seed ^ int64(h.Sum64())))
	var rtSum, ioSum float64
	for r := 0; r < tb.runs; r++ {
		rtSum += runtime * noiseFactor(rng, tb.sigma)
		ioSum += iops * noiseFactor(rng, tb.sigma)
	}
	n := float64(tb.runs)
	return Measurement{Runtime: rtSum / n, IOPS: ioSum / n}
}

// noiseFactor returns a positive multiplicative noise term with standard
// deviation ≈ sigma around 1.
func noiseFactor(rng *rand.Rand, sigma float64) float64 {
	f := 1 + rng.NormFloat64()*sigma
	if f < 0.5 {
		f = 0.5
	}
	return f
}

// Slowdown is a convenience wrapper returning only the slowdown of target
// against a continuously running background (Table 1's normalized runtime).
func (tb *Testbed) Slowdown(target, bg AppSpec) (float64, error) {
	solo, err := tb.ProfileSolo(target)
	if err != nil {
		return 0, err
	}
	m, err := tb.MeasureAgainstBackground(target, bg)
	if err != nil {
		return 0, err
	}
	if solo.Runtime <= 0 || math.IsInf(solo.Runtime, 0) {
		return 0, fmt.Errorf("xen: app %q has no finite solo runtime", target.Name)
	}
	return m.Runtime / solo.Runtime, nil
}
