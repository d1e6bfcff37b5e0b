package xen

import (
	"math"
	"testing"
)

func newTestbedT(t *testing.T, runs int, sigma float64) *Testbed {
	t.Helper()
	return NewTestbed(newTestHost(t), runs, sigma, 42)
}

func TestProfileSoloFeatures(t *testing.T) {
	tb := newTestbedT(t, 3, 0)
	p, err := tb.ProfileSolo(seqReader("sr"))
	if err != nil {
		t.Fatal(err)
	}
	f := p.Features()
	if len(f) != 4 {
		t.Fatalf("features = %v", f)
	}
	if f[0] <= 0 {
		t.Fatal("read/s must be positive for a reader")
	}
	if f[1] != 0 {
		t.Fatal("write/s must be zero for a pure reader")
	}
	if f[2] <= 0 || f[2] > 1 {
		t.Fatalf("DomU CPU out of range: %v", f[2])
	}
	if f[3] <= 0 {
		t.Fatal("Dom0 CPU must be positive for an I/O app")
	}
}

func TestMeasureAgainstBackgroundRejectsEndlessTarget(t *testing.T) {
	tb := newTestbedT(t, 1, 0)
	if _, err := tb.MeasureAgainstBackground(ioHogBG("x"), Idle()); err == nil {
		t.Fatal("endless target accepted")
	}
}

func TestMeasurementNoiseIsDeterministicAndBounded(t *testing.T) {
	tb := newTestbedT(t, 3, 0.05)
	m1, err := tb.MeasureAgainstBackground(seqReader("sr"), ioHogBG("bg"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tb.MeasureAgainstBackground(seqReader("sr"), ioHogBG("bg"))
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("noisy measurement not reproducible for same key and seed")
	}
	clean := NewTestbed(newTestHost(t), 1, 0, 42)
	m0, err := clean.MeasureAgainstBackground(seqReader("sr"), ioHogBG("bg"))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1.Runtime-m0.Runtime)/m0.Runtime > 0.2 {
		t.Fatalf("noise too large: %v vs clean %v", m1.Runtime, m0.Runtime)
	}
}

func TestDifferentSeedsDifferentNoise(t *testing.T) {
	a := NewTestbed(newTestHost(t), 1, 0.05, 1)
	b := NewTestbed(newTestHost(t), 1, 0.05, 2)
	ma, err := a.MeasureAgainstBackground(seqReader("sr"), ioHogBG("bg"))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.MeasureAgainstBackground(seqReader("sr"), ioHogBG("bg"))
	if err != nil {
		t.Fatal(err)
	}
	if ma == mb {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestMoreRunsReduceNoise(t *testing.T) {
	// Averaging over many runs must pull the measurement toward the clean
	// value compared to the typical single-run deviation.
	clean := NewTestbed(newTestHost(t), 1, 0, 7)
	m0, err := clean.MeasureAgainstBackground(seqReader("sr"), ioHogBG("bg"))
	if err != nil {
		t.Fatal(err)
	}
	many := NewTestbed(newTestHost(t), 200, 0.05, 7)
	mN, err := many.MeasureAgainstBackground(seqReader("sr"), ioHogBG("bg"))
	if err != nil {
		t.Fatal(err)
	}
	if dev := math.Abs(mN.Runtime-m0.Runtime) / m0.Runtime; dev > 0.02 {
		t.Fatalf("200-run average deviates %v from clean value", dev)
	}
}

func TestSlowdownAgainstIdleIsOne(t *testing.T) {
	tb := newTestbedT(t, 1, 0)
	sd, err := tb.Slowdown(seqReader("sr"), Idle())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd-1) > 0.02 {
		t.Fatalf("slowdown vs idle = %v want ≈1", sd)
	}
}
