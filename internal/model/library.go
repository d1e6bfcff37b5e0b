package model

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"tracon/internal/par"
	"tracon/internal/xen"
)

// ErrUnknownApp is wrapped by every library and oracle lookup that names
// an application the predictor was never trained on. Callers serving
// untrusted input (the tracond daemon) branch on it with errors.Is to
// distinguish a bad request from an internal failure.
var ErrUnknownApp = errors.New("model: unknown application")

// ErrEmptyLibrary is wrapped by scoring-path lookups against a library
// with no trained models at all — a configuration error rather than a
// bad application name.
var ErrEmptyLibrary = errors.New("model: empty library")

// Predictor is what the interference-aware schedulers consume: given a
// target application and the application currently occupying the other VM
// of a candidate machine (empty string = idle), predict the target's
// runtime or throughput. Implementations: Library (trained models, the
// TRACON path) and Oracle (ground truth, an upper-bound ablation).
type Predictor interface {
	// PredictRuntime returns the expected runtime of target when co-located
	// with corunner ("" for an idle neighbour).
	PredictRuntime(target, corunner string) (float64, error)
	// PredictIOPS returns the expected throughput of target likewise.
	PredictIOPS(target, corunner string) (float64, error)
	// SoloRuntime returns target's no-interference runtime estimate.
	SoloRuntime(target string) (float64, error)
	// SoloIOPS returns target's no-interference throughput estimate.
	SoloIOPS(target string) (float64, error)
	// Apps lists the applications the predictor knows.
	Apps() []string
}

// Library holds one trained AppModel per application plus the solo
// characteristics needed to describe each application as a co-runner.
//
// A Library is safe for concurrent use. Reads (the Predict* hot path the
// schedulers hammer) take a shared lock; Add and Replace (training and the
// adaptive retraining path) take it exclusively, so a retrain can swap a
// model in while concurrent simulations keep predicting. Individual
// AppModels are immutable once trained.
type Library struct {
	Kind Kind

	mu       sync.RWMutex
	models   map[string]*AppModel
	features map[string][]float64
	soloRT   map[string]float64
	soloIO   map[string]float64
}

// NewLibrary creates an empty library of the given family.
func NewLibrary(k Kind) *Library {
	return &Library{
		Kind:     k,
		models:   map[string]*AppModel{},
		features: map[string][]float64{},
		soloRT:   map[string]float64{},
		soloIO:   map[string]float64{},
	}
}

// Add trains a model from ts and registers the application. solo is the
// application's measured solo profile.
func (l *Library) Add(ts *TrainingSet, solo xen.SoloProfile) error {
	m, err := Train(ts, l.Kind)
	if err != nil {
		return fmt.Errorf("model: training %s/%v: %w", ts.App, l.Kind, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.models[ts.App] = m
	l.features[ts.App] = append([]float64(nil), ts.Features...)
	l.soloRT[ts.App] = solo.Runtime
	l.soloIO[ts.App] = solo.IOPS
	return nil
}

// AddTrained registers an externally trained model (typically loaded via
// LoadLibrary) together with the solo characteristics the library needs to
// describe the application as a co-runner. The model family must match.
func (l *Library) AddTrained(m *AppModel, features []float64, solo xen.SoloProfile) error {
	if m == nil {
		return fmt.Errorf("model: nil model")
	}
	if m.App == "" {
		return fmt.Errorf("model: model has no application name")
	}
	if m.Kind != l.Kind {
		return fmt.Errorf("model: %v model %q added to %v library", m.Kind, m.App, l.Kind)
	}
	if len(features) != NumFeatures {
		return fmt.Errorf("model: %q has %d features, want %d", m.App, len(features), NumFeatures)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.models[m.App] = m
	l.features[m.App] = append([]float64(nil), features...)
	l.soloRT[m.App] = solo.Runtime
	l.soloIO[m.App] = solo.IOPS
	return nil
}

// Replace swaps in an externally trained model (used by the adaptive path).
func (l *Library) Replace(app string, m *AppModel) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.models[app]; !ok {
		return l.lookupErrLocked(app)
	}
	l.models[app] = m
	return nil
}

// Features returns an application's solo characteristics vector.
func (l *Library) Features(app string) ([]float64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	f, ok := l.features[app]
	if !ok {
		return nil, l.lookupErrLocked(app)
	}
	return f, nil
}

// Model returns the trained model for app.
func (l *Library) Model(app string) (*AppModel, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	m, ok := l.models[app]
	if !ok {
		return nil, l.lookupErrLocked(app)
	}
	return m, nil
}

// lookupErrLocked builds the typed error for a failed lookup: an empty
// library is a configuration problem (ErrEmptyLibrary); a populated one
// simply does not know this name (ErrUnknownApp). Requires l.mu held.
func (l *Library) lookupErrLocked(app string) error {
	if len(l.models) == 0 {
		return fmt.Errorf("%w (%v family): no models trained, cannot look up %q", ErrEmptyLibrary, l.Kind, app)
	}
	return fmt.Errorf("%w: %q not in %v library", ErrUnknownApp, app, l.Kind)
}

// Apps returns the registered application names, sorted.
func (l *Library) Apps() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.models))
	for a := range l.models {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// PredictRuntime implements Predictor.
func (l *Library) PredictRuntime(target, corunner string) (float64, error) {
	l.mu.RLock()
	m, ok := l.models[target]
	bg, err := l.corunnerFeaturesLocked(corunner)
	if !ok {
		err = l.lookupErrLocked(target)
	}
	l.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	return m.PredictRuntime(bg), nil
}

// PredictIOPS implements Predictor.
func (l *Library) PredictIOPS(target, corunner string) (float64, error) {
	l.mu.RLock()
	m, ok := l.models[target]
	bg, err := l.corunnerFeaturesLocked(corunner)
	if !ok {
		err = l.lookupErrLocked(target)
	}
	l.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	return m.PredictIOPS(bg), nil
}

// SoloRuntime implements Predictor.
func (l *Library) SoloRuntime(target string) (float64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rt, ok := l.soloRT[target]
	if !ok {
		return 0, l.lookupErrLocked(target)
	}
	return rt, nil
}

// SoloIOPS returns the measured no-interference throughput.
func (l *Library) SoloIOPS(target string) (float64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	io, ok := l.soloIO[target]
	if !ok {
		return 0, l.lookupErrLocked(target)
	}
	return io, nil
}

// corunnerFeaturesLocked requires l.mu held (read or write).
func (l *Library) corunnerFeaturesLocked(corunner string) ([]float64, error) {
	if corunner == "" {
		return zeroFeatures(), nil
	}
	f, ok := l.features[corunner]
	if !ok {
		return nil, fmt.Errorf("%w: corunner %q not in %v library", ErrUnknownApp, corunner, l.Kind)
	}
	return f, nil
}

// BuildLibrary profiles and trains models for every target application
// against the given background workloads — the full TRACON bring-up
// pipeline, run sequentially. This is the expensive call (apps ×
// backgrounds measurements); experiments build one library per model
// family and reuse it.
func BuildLibrary(tb *xen.Testbed, targets []xen.AppSpec, backgrounds []xen.AppSpec, k Kind) (*Library, error) {
	sets, solos, err := ProfileAll(tb, targets, backgrounds, 1)
	if err != nil {
		return nil, err
	}
	return TrainLibrary(k, sets, solos, 1)
}

// ProfileAll is the profiling stage of the bring-up: each target against
// every background, plus its solo profile. Training sets and solos come
// back indexed like targets. Up to workers targets are measured at once,
// each on its own clone of tb; the testbed's noise is key-addressed, so
// the result is the same at any worker count.
func ProfileAll(tb *xen.Testbed, targets, backgrounds []xen.AppSpec, workers int) ([]*TrainingSet, []xen.SoloProfile, error) {
	sets := make([]*TrainingSet, len(targets))
	solos := make([]xen.SoloProfile, len(targets))
	err := par.ForEach(workers, len(targets), func(i int) error {
		wtb := tb.Clone()
		ts, err := (&Profiler{TB: wtb}).Profile(targets[i], backgrounds)
		if err != nil {
			return err
		}
		solo, err := wtb.ProfileSolo(targets[i])
		if err != nil {
			return err
		}
		sets[i], solos[i] = ts, solo
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return sets, solos, nil
}

// TrainLibrary fits family k to each profiled application, up to workers
// apps at once; solos[i] is sets[i]'s solo profile. Each fit reads only its
// own set, so the library is the same at any worker count. If any fit
// fails, the lowest-indexed failure is returned and no library.
func TrainLibrary(k Kind, sets []*TrainingSet, solos []xen.SoloProfile, workers int) (*Library, error) {
	lib := NewLibrary(k)
	err := par.ForEach(workers, len(sets), func(i int) error {
		return lib.Add(sets[i], solos[i])
	})
	if err != nil {
		return nil, err
	}
	return lib, nil
}

// Oracle is a ground-truth Predictor backed directly by the host
// simulator. It is the upper bound a perfect interference model would
// reach, used by the scheduler-ablation benches.
type Oracle struct {
	tb    *xen.Testbed
	specs map[string]xen.AppSpec
}

// NewOracle builds an oracle over the given applications.
func NewOracle(tb *xen.Testbed, apps []xen.AppSpec) *Oracle {
	m := make(map[string]xen.AppSpec, len(apps))
	for _, a := range apps {
		m[a.Name] = a
	}
	return &Oracle{tb: tb, specs: m}
}

// PredictRuntime implements Predictor with a true co-run solve.
func (o *Oracle) PredictRuntime(target, corunner string) (float64, error) {
	st, err := o.steady(target, corunner)
	if err != nil {
		return 0, err
	}
	return st.Runtime, nil
}

// PredictIOPS implements Predictor with a true co-run solve.
func (o *Oracle) PredictIOPS(target, corunner string) (float64, error) {
	st, err := o.steady(target, corunner)
	if err != nil {
		return 0, err
	}
	return st.IOPS, nil
}

// SoloRuntime implements Predictor.
func (o *Oracle) SoloRuntime(target string) (float64, error) {
	st, err := o.steady(target, "")
	if err != nil {
		return 0, err
	}
	return st.Runtime, nil
}

// SoloIOPS implements Predictor.
func (o *Oracle) SoloIOPS(target string) (float64, error) {
	st, err := o.steady(target, "")
	if err != nil {
		return 0, err
	}
	return st.IOPS, nil
}

// Apps implements Predictor.
func (o *Oracle) Apps() []string {
	out := make([]string, 0, len(o.specs))
	for a := range o.specs {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (o *Oracle) steady(target, corunner string) (xen.AppSteady, error) {
	t, ok := o.specs[target]
	if !ok {
		return xen.AppSteady{}, fmt.Errorf("%w: oracle has no target %q", ErrUnknownApp, target)
	}
	apps := []xen.AppSpec{t}
	if corunner != "" {
		c, ok := o.specs[corunner]
		if !ok {
			return xen.AppSteady{}, fmt.Errorf("%w: oracle has no corunner %q", ErrUnknownApp, corunner)
		}
		c.Name = c.Name + "-bg"
		apps = append(apps, c)
	}
	st, err := o.tb.Host().Steady(apps)
	if err != nil {
		return xen.AppSteady{}, err
	}
	return st[0], nil
}
