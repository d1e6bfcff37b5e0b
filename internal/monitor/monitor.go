// Package monitor implements TRACON's task and resource monitor (Sec. 3):
// it observes the four Table 2 application characteristics the way xentop
// and iostat would (noisy, sampled, aggregated in Dom0), maintains running
// per-application estimates, and watches model prediction errors for the
// drift events — a significant shift of the mean prediction error — that
// trigger online model rebuilds (Sec. 3.1).
package monitor

import (
	"fmt"
	"sync"

	"tracon/internal/model"
	"tracon/internal/stats"
	"tracon/internal/xen"
)

// Monitor aggregates application characteristics observed on a testbed.
// It is safe for concurrent use: in a data center many application servers
// report into one manager-side monitor.
type Monitor struct {
	tb *xen.Testbed

	mu    sync.Mutex
	feats map[string][]stats.Welford // per app: one accumulator per feature
}

// New builds a Monitor over the given testbed.
func New(tb *xen.Testbed) *Monitor {
	return &Monitor{
		tb:    tb,
		feats: map[string][]stats.Welford{},
	}
}

// ObserveSolo measures one solo run of the application and folds the
// observed characteristics into the running estimates.
func (m *Monitor) ObserveSolo(app xen.AppSpec) (xen.SoloProfile, error) {
	p, err := m.tb.ProfileSolo(app)
	if err != nil {
		return xen.SoloProfile{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	agg, ok := m.feats[app.Name]
	if !ok {
		agg = make([]stats.Welford, model.NumFeatures)
		m.feats[app.Name] = agg
	}
	for i, v := range p.Features() {
		agg[i].Add(v)
	}
	return p, nil
}

// Features returns the running characteristic estimate for an application.
func (m *Monitor) Features(app string) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg, ok := m.feats[app]
	if !ok {
		return nil, fmt.Errorf("monitor: app %q never observed", app)
	}
	out := make([]float64, len(agg))
	for i := range agg {
		out[i] = agg[i].Mean()
	}
	return out, nil
}

// ObserveCoRun measures the target against a background workload and
// returns the production observation the adaptive models consume: the
// background's current characteristic estimate plus the target's measured
// outcome.
func (m *Monitor) ObserveCoRun(target, bg xen.AppSpec) (model.Sample, error) {
	if _, err := m.ObserveSolo(bg); err != nil {
		return model.Sample{}, err
	}
	bgFeat, err := m.Features(bg.Name)
	if err != nil {
		return model.Sample{}, err
	}
	meas, err := m.tb.MeasureAgainstBackground(target, bg)
	if err != nil {
		return model.Sample{}, err
	}
	return model.Sample{BG: bgFeat, Runtime: meas.Runtime, IOPS: meas.IOPS}, nil
}
