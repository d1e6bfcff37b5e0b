package model

import (
	"fmt"
)

// DriftDetector watches a stream of prediction errors and reports when the
// model has stopped describing reality (a mean shift of the error —
// the "predefined events" of Sec. 3.1). The monitor package provides the
// implementation; the interface lives here so the adaptive model does not
// depend on it.
type DriftDetector interface {
	// Observe folds in one prediction error and reports whether drift was
	// detected at this point.
	Observe(err float64) bool
	// Reset clears the detector after a rebuild.
	Reset()
}

// AdaptiveConfig tunes the online-learning loop of Fig 7.
type AdaptiveConfig struct {
	// WindowCap bounds the sliding training window (the paper's initial
	// blastn model holds 500 points).
	WindowCap int
	// RetrainEvery rebuilds the model after this many new observations
	// (the paper rebuilds every 160 new data points).
	RetrainEvery int
	// Detector, when non-nil, can force an early rebuild on drift.
	Detector DriftDetector
}

// DefaultAdaptive returns the paper's settings.
func DefaultAdaptive() AdaptiveConfig {
	return AdaptiveConfig{WindowCap: 500, RetrainEvery: 160}
}

// Adaptive is an online-learning interference model: it serves predictions
// from its current model, tracks prediction errors against observed
// outcomes, gradually replaces old training data with fresh observations,
// and rebuilds the model periodically (or on drift).
type Adaptive struct {
	cfg     AdaptiveConfig
	kind    Kind
	app     string
	feats   []float64
	window  []Sample
	sinceRT int
	current *AppModel

	// Per-observation relative errors, recorded before the observation is
	// added to the window — exactly Fig 7's x-axis.
	RuntimeErrors []float64
	IOPSErrors    []float64
	// Rebuilds records the observation indices at which retraining fired.
	Rebuilds []int
}

// NewAdaptive builds the initial model from ts.
func NewAdaptive(ts *TrainingSet, k Kind, cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.WindowCap <= 0 {
		cfg.WindowCap = 500
	}
	if cfg.RetrainEvery <= 0 {
		cfg.RetrainEvery = 160
	}
	m, err := Train(ts, k)
	if err != nil {
		return nil, err
	}
	w := append([]Sample(nil), ts.Samples...)
	if len(w) > cfg.WindowCap {
		w = w[len(w)-cfg.WindowCap:]
	}
	return &Adaptive{
		cfg:     cfg,
		kind:    k,
		app:     ts.App,
		feats:   append([]float64(nil), ts.Features...),
		window:  w,
		current: m,
	}, nil
}

// Model returns the currently served model.
func (a *Adaptive) Model() *AppModel { return a.current }

// Observe records one production observation: the model's error on it is
// logged, the sample joins the sliding window, and the model is rebuilt
// when enough new data has accumulated (or the drift detector fires).
// It reports whether a rebuild happened.
func (a *Adaptive) Observe(s Sample) (rebuilt bool, err error) {
	if len(s.BG) != NumFeatures {
		return false, fmt.Errorf("model: observation has %d features, want %d", len(s.BG), NumFeatures)
	}
	rtErr := PredictionError(a.current.PredictRuntime(s.BG), s.Runtime)
	ioErr := PredictionError(a.current.PredictIOPS(s.BG), s.IOPS)
	a.RuntimeErrors = append(a.RuntimeErrors, rtErr)
	a.IOPSErrors = append(a.IOPSErrors, ioErr)

	a.window = append(a.window, s)
	if len(a.window) > a.cfg.WindowCap {
		a.window = a.window[len(a.window)-a.cfg.WindowCap:]
	}
	a.sinceRT++

	drift := false
	if a.cfg.Detector != nil {
		drift = a.cfg.Detector.Observe(rtErr)
	}
	if a.sinceRT < a.cfg.RetrainEvery && !drift {
		return false, nil
	}
	ts := &TrainingSet{App: a.app, Features: a.feats, Samples: a.window}
	m, trainErr := Train(ts, a.kind)
	if trainErr != nil {
		// Not enough clean data to retrain; keep serving the old model and
		// try again later rather than going dark.
		a.sinceRT = 0
		return false, nil
	}
	a.current = m
	a.sinceRT = 0
	if a.cfg.Detector != nil {
		a.cfg.Detector.Reset()
	}
	a.Rebuilds = append(a.Rebuilds, len(a.RuntimeErrors)-1)
	return true, nil
}

// RecentError returns the mean runtime prediction error over the last n
// observations (or all, if fewer).
func (a *Adaptive) RecentError(n int) float64 {
	errs := a.RuntimeErrors
	if len(errs) == 0 {
		return 0
	}
	if n > len(errs) {
		n = len(errs)
	}
	sum := 0.0
	for _, e := range errs[len(errs)-n:] {
		sum += e
	}
	return sum / float64(n)
}
