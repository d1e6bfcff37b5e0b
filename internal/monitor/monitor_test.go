package monitor

import (
	"math"
	"math/rand"
	"testing"

	"tracon/internal/model"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

func newMonitor(t *testing.T) *Monitor {
	t.Helper()
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		t.Fatal(err)
	}
	return New(xen.NewTestbed(host, 3, 0.05, 5))
}

func TestObserveSoloAccumulates(t *testing.T) {
	m := newMonitor(t)
	b, _ := workload.BenchmarkByName("blastn")
	if _, err := m.Features("blastn"); err == nil {
		t.Fatal("features available before observation")
	}
	var last xen.SoloProfile
	for i := 0; i < 5; i++ {
		p, err := m.ObserveSolo(b.Spec)
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	f, err := m.Features("blastn")
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != model.NumFeatures {
		t.Fatalf("features = %v", f)
	}
	// The running mean should be near any single observation.
	for i, v := range last.Features() {
		if v > 0 && math.Abs(f[i]-v)/v > 0.5 {
			t.Fatalf("feature %d estimate %v far from observation %v", i, f[i], v)
		}
	}
	if len(m.feats) != 1 || m.feats["blastn"] == nil {
		t.Fatalf("observed apps = %v, want blastn only", m.feats)
	}
}

func TestObserveCoRunProducesSample(t *testing.T) {
	m := newMonitor(t)
	b, _ := workload.BenchmarkByName("blastn")
	bg := workload.BGIOHigh.Spec()
	s, err := m.ObserveCoRun(b.Spec, bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.BG) != model.NumFeatures || s.Runtime <= 0 || s.IOPS < 0 {
		t.Fatalf("bad sample %+v", s)
	}
	// Heavy background should yield a runtime well above solo.
	solo, err := m.tb.ProfileSolo(b.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runtime < solo.Runtime*1.5 {
		t.Fatalf("co-run runtime %v vs solo %v", s.Runtime, solo.Runtime)
	}
}

func TestDetectorIgnoresStableErrors(t *testing.T) {
	d := NewDetector(DriftConfig{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		if d.Observe(0.1 + rng.Float64()*0.05) {
			t.Fatalf("false positive at observation %d", i)
		}
	}
}

func TestDetectorFiresOnMeanShift(t *testing.T) {
	d := NewDetector(DriftConfig{})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if d.Observe(0.1 + rng.Float64()*0.05) {
			t.Fatal("false positive in baseline phase")
		}
	}
	fired := false
	for i := 0; i < 60; i++ {
		if d.Observe(1.2 + rng.Float64()*0.1) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("detector missed a 10x mean shift")
	}
}

func TestDetectorResetRestartsBaseline(t *testing.T) {
	d := NewDetector(DriftConfig{})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		d.Observe(0.1 + rng.Float64()*0.02)
	}
	d.Reset()
	if d.BaselineReady() {
		t.Fatal("baseline survived reset")
	}
	// High errors right after reset become the new baseline — no firing.
	for i := 0; i < 100; i++ {
		if d.Observe(1.0+rng.Float64()*0.05) && i < 60 {
			t.Fatal("fired while rebuilding baseline")
		}
	}
}

func TestDetectorImplementsModelInterface(t *testing.T) {
	var _ model.DriftDetector = NewDetector(DriftConfig{})
}

func TestDetectorDefaultsApplied(t *testing.T) {
	d := NewDetector(DriftConfig{})
	def := DefaultDrift()
	if d.cfg != def {
		t.Fatalf("defaults not applied: %+v", d.cfg)
	}
}
