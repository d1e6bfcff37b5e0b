package monitor

import (
	"tracon/internal/stats"
)

// DriftConfig tunes the prediction-error drift detector.
type DriftConfig struct {
	// Baseline is how many initial observations establish the reference
	// error distribution.
	Baseline int
	// Window is the size of the sliding recent-error window compared
	// against the baseline.
	Window int
	// MeanShiftSigmas fires when the recent mean error exceeds the
	// baseline mean by this many baseline standard deviations.
	MeanShiftSigmas float64
	// MinMeanShift is an absolute floor on the mean shift (guards against
	// a near-zero baseline variance making the detector hair-triggered).
	MinMeanShift float64
}

// DefaultDrift returns a conservative configuration: react to clear
// environment changes (Fig 7's storage migration) without tripping on the
// noise floor.
func DefaultDrift() DriftConfig {
	return DriftConfig{
		Baseline:        60,
		Window:          20,
		MeanShiftSigmas: 3,
		MinMeanShift:    0.10,
	}
}

// Detector watches a stream of prediction errors for the "predefined
// events" of Sec. 3.1: a significant upward shift of the mean error over a
// sliding window, against a baseline frozen after the first observations.
// It implements model.DriftDetector. A variance test on the window is
// deliberately absent: a 20-sample variance against a 60-sample baseline
// fires on stationary noise far too often to gate a retrain.
type Detector struct {
	cfg      DriftConfig
	baseline stats.Welford
	recent   []float64
}

// NewDetector builds a Detector; zero-valued config fields take defaults.
func NewDetector(cfg DriftConfig) *Detector {
	def := DefaultDrift()
	if cfg.Baseline <= 0 {
		cfg.Baseline = def.Baseline
	}
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.MeanShiftSigmas <= 0 {
		cfg.MeanShiftSigmas = def.MeanShiftSigmas
	}
	if cfg.MinMeanShift <= 0 {
		cfg.MinMeanShift = def.MinMeanShift
	}
	return &Detector{cfg: cfg}
}

// Observe folds in one prediction error and reports whether drift is
// detected at this observation.
func (d *Detector) Observe(err float64) bool {
	if d.baseline.N() < d.cfg.Baseline {
		d.baseline.Add(err)
		return false
	}
	d.recent = append(d.recent, err)
	if len(d.recent) > d.cfg.Window {
		d.recent = d.recent[len(d.recent)-d.cfg.Window:]
	}
	if len(d.recent) < d.cfg.Window {
		return false
	}
	sum := 0.0
	for _, e := range d.recent {
		sum += e
	}
	shift := sum/float64(len(d.recent)) - d.baseline.Mean()
	threshold := d.cfg.MeanShiftSigmas * d.baseline.Stddev()
	if threshold < d.cfg.MinMeanShift {
		threshold = d.cfg.MinMeanShift
	}
	return shift > threshold
}

// Reset clears all state (called after a model rebuild: the new model
// defines a new baseline).
func (d *Detector) Reset() {
	d.baseline.Reset()
	d.recent = d.recent[:0]
}
