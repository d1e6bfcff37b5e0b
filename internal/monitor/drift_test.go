package monitor

import (
	"math"
	"math/rand"
	"testing"

	"tracon/internal/model"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

// The boundary tests run the detector on hand-built error streams where
// the thresholds can be computed exactly, so firing behaviour is pinned at
// the decision boundary rather than just "somewhere past it".

// TestDetectorMeanShiftFloorBoundary: with a zero-variance baseline the
// sigma threshold collapses and MinMeanShift is the floor; a shift exactly
// at the floor must stay quiet, a shift just past it must fire.
func TestDetectorMeanShiftFloorBoundary(t *testing.T) {
	cfg := DriftConfig{Baseline: 30, Window: 10, MeanShiftSigmas: 3, MinMeanShift: 0.10}
	baseline := func(d *Detector) {
		for i := 0; i < cfg.Baseline; i++ {
			if d.Observe(0.2) {
				t.Fatal("fired during baseline")
			}
		}
	}

	t.Run("at-floor", func(t *testing.T) {
		d := NewDetector(cfg)
		baseline(d)
		for i := 0; i < 40; i++ {
			// shift = 0.10 exactly: not strictly above the floor.
			if d.Observe(0.30) {
				t.Fatalf("fired at observation %d with shift == MinMeanShift", i)
			}
		}
	})
	t.Run("past-floor", func(t *testing.T) {
		d := NewDetector(cfg)
		baseline(d)
		fired := -1
		for i := 0; i < 40; i++ {
			if d.Observe(0.301) {
				fired = i
				break
			}
		}
		if fired < 0 {
			t.Fatal("never fired with shift past MinMeanShift")
		}
		if fired < cfg.Window-1 {
			t.Fatalf("fired at %d, before the recent window could fill", fired)
		}
	})
}

// TestDetectorSigmaThresholdBoundary: with a noisy baseline the sigma term
// dominates the floor. Baseline alternates 0.2±0.05 (sample stddev
// 0.05·√(30/29) ≈ 0.05085, so 3σ ≈ 0.1526): a recent mean shifted by 0.14
// stays quiet, one shifted by 0.16 fires.
func TestDetectorSigmaThresholdBoundary(t *testing.T) {
	cfg := DriftConfig{Baseline: 30, Window: 10, MeanShiftSigmas: 3, MinMeanShift: 0.01}
	baseline := func(d *Detector) {
		for i := 0; i < cfg.Baseline; i++ {
			v := 0.15
			if i%2 == 1 {
				v = 0.25
			}
			if d.Observe(v) {
				t.Fatal("fired during baseline")
			}
		}
	}

	t.Run("below-3-sigma", func(t *testing.T) {
		d := NewDetector(cfg)
		baseline(d)
		for i := 0; i < 40; i++ {
			if d.Observe(0.34) {
				t.Fatalf("fired at %d with a 0.14 shift < 3σ≈0.153", i)
			}
		}
	})
	t.Run("above-3-sigma", func(t *testing.T) {
		d := NewDetector(cfg)
		baseline(d)
		fired := false
		for i := 0; i < 40; i++ {
			if d.Observe(0.36) {
				fired = true
				break
			}
		}
		if !fired {
			t.Fatal("never fired with a 0.16 shift > 3σ≈0.153")
		}
	})
}

// TestDetectorQuietOnStationaryNoise is the detector's false-alarm
// property: streams with no drift must never fire. Each stream draws a
// noise factor f = 1 + σ·N(0,1) per completion and feeds the relative
// error |1 − f| / f, the law of the repository benchmark's generated
// tasks; 47 000 observations is one benchmark run's completion count.
func TestDetectorQuietOnStationaryNoise(t *testing.T) {
	const n = 47000
	for _, c := range []struct {
		sigma float64
		seeds int64
	}{{0.02, 10}, {0.05, 20}, {0.10, 40}} {
		fires := 0
		for seed := int64(1); seed <= c.seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := NewDetector(DriftConfig{})
			for i := 0; i < n; i++ {
				f := 1 + c.sigma*rng.NormFloat64()
				if d.Observe(math.Abs(1-f) / f) {
					fires++
					break
				}
			}
		}
		if fires > 0 {
			t.Errorf("σ = %.2f: %d of %d stationary streams fired", c.sigma, fires, c.seeds)
		}
	}
}

// TestDetectorEndToEndMonitorStream closes the loop the way Sec 3.1
// deploys the detector: a model trained on local storage serves
// predictions, the monitor observes production co-runs, and the stream of
// prediction errors feeds the detector. While the environment matches
// training, no drift fires; when storage migrates to iSCSI (Fig 7's
// shock), the error stream shifts and the detector must fire quickly.
func TestDetectorEndToEndMonitorStream(t *testing.T) {
	hddCfg := xen.DefaultHost()
	host, err := xen.NewHost(hddCfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := xen.NewTestbed(host, 3, 0.05, 11)
	target, err := workload.BenchmarkByName("blastn")
	if err != nil {
		t.Fatal(err)
	}
	var bgs []xen.AppSpec
	for _, w := range workload.ProfilingWorkloads(hddCfg.Disk) {
		bgs = append(bgs, w.Spec)
	}
	ts, err := (&model.Profiler{TB: tb}).Profile(target.Spec, bgs)
	if err != nil {
		t.Fatal(err)
	}
	am, err := model.Train(ts, model.NLM)
	if err != nil {
		t.Fatal(err)
	}

	// One prediction error per monitored co-run on the given testbed.
	errStream := func(tb *xen.Testbed, n int) []float64 {
		mon := New(tb)
		out := make([]float64, 0, n)
		for i := 0; len(out) < n; i++ {
			s, err := mon.ObserveCoRun(target.Spec, bgs[i%len(bgs)])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, model.PredictionError(am.PredictRuntime(s.BG), s.Runtime))
		}
		return out
	}

	d := NewDetector(DriftConfig{})
	for i, e := range errStream(tb, 160) {
		if d.Observe(e) {
			t.Fatalf("drift fired at observation %d in the training environment", i)
		}
	}
	if !d.BaselineReady() {
		t.Fatal("baseline not established after 160 observations")
	}

	iscsiCfg := hddCfg
	iscsiCfg.Disk = xen.ISCSI()
	ihost, err := xen.NewHost(iscsiCfg)
	if err != nil {
		t.Fatal(err)
	}
	itb := xen.NewTestbed(ihost, 3, 0.05, 12)
	fired := -1
	for i, e := range errStream(itb, 80) {
		if d.Observe(e) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("detector missed the local → iSCSI storage migration")
	}
	t.Logf("migration detected after %d post-shift observations", fired+1)
}
