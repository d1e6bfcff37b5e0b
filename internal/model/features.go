// Package model implements TRACON's interference prediction models
// (Sec. 3.1): the weighted mean method (WMM, PCA + distance-weighted
// nearest neighbours), the linear model (LM, stepwise AIC selection over
// first-degree terms) and the nonlinear model (NLM, stepwise AIC over the
// full degree-2 expansion, refit with Gauss-Newton), for the two responses
// the paper studies — application runtime and IOPS.
//
// A model is trained per target application from its interference profile:
// the target runs in VM1 while each of the 125 synthetic workloads runs in
// VM2, and the four Table 2 characteristics of the background workload are
// the controlled variables.
package model

import (
	"errors"
	"fmt"

	"tracon/internal/mat"
	"tracon/internal/xen"
)

// NumFeatures is the number of Table 2 application characteristics:
// read req/s, write req/s, DomU CPU, Dom0 CPU.
const NumFeatures = 4

// Response selects which observable a model predicts.
type Response int

// The two responses of the paper.
const (
	Runtime Response = iota
	IOPS
)

// String returns the response label.
func (r Response) String() string {
	if r == Runtime {
		return "runtime"
	}
	return "iops"
}

// Sample is one profiling observation: the background workload's solo
// characteristics and the target's measured behaviour under that
// interference.
type Sample struct {
	BG      []float64 // background features, length NumFeatures
	Runtime float64   // target's runtime under interference (seconds)
	IOPS    float64   // target's throughput under interference
}

// TrainingSet is a target application's interference profile.
type TrainingSet struct {
	App      string
	Features []float64 // the target's own solo characteristics
	Samples  []Sample
}

// ErrTooFewSamples is returned when a training set cannot support the
// requested model.
var ErrTooFewSamples = errors.New("model: too few training samples")

// Matrix lays the background features out as a design-input matrix
// (observations in rows).
func (ts *TrainingSet) Matrix() *mat.Matrix {
	if len(ts.Samples) == 0 {
		panic("model: empty training set")
	}
	x := mat.New(len(ts.Samples), NumFeatures)
	for i, s := range ts.Samples {
		x.SetRow(i, s.BG)
	}
	return x
}

// ResponseVec extracts the chosen response column.
func (ts *TrainingSet) ResponseVec(r Response) []float64 {
	y := make([]float64, len(ts.Samples))
	for i, s := range ts.Samples {
		if r == Runtime {
			y[i] = s.Runtime
		} else {
			y[i] = s.IOPS
		}
	}
	return y
}

// Profiler produces training sets by exercising a target application
// against a set of background workloads on a testbed — the automated
// profiling pipeline of Sec. 3.1.
type Profiler struct {
	TB *xen.Testbed
}

// soloReplicas is how many independent no-interference measurements the
// profiler folds into each training set. The paper's profile includes the
// "performance without interference"; replicating it anchors the fitted
// response surface at the solo baseline, which the schedulers' empty-
// machine predictions and Fig 5/6's best-case predictions depend on.
const soloReplicas = 8

// Profile runs target against every background and assembles the training
// set. Background features are the background's own solo profile, which is
// what the task and resource monitor can observe in production.
func (p *Profiler) Profile(target xen.AppSpec, backgrounds []xen.AppSpec) (*TrainingSet, error) {
	if len(backgrounds) == 0 {
		return nil, fmt.Errorf("model: no backgrounds to profile %q against", target.Name)
	}
	tgtSolo, err := p.TB.ProfileSolo(target)
	if err != nil {
		return nil, err
	}
	ts := &TrainingSet{App: target.Name, Features: tgtSolo.Features()}
	for _, bg := range backgrounds {
		bgSolo, err := p.TB.ProfileSolo(bg)
		if err != nil {
			return nil, err
		}
		m, err := p.TB.MeasureAgainstBackground(target, bg)
		if err != nil {
			return nil, err
		}
		ts.Samples = append(ts.Samples, Sample{
			BG:      bgSolo.Features(),
			Runtime: m.Runtime,
			IOPS:    m.IOPS,
		})
	}
	// Independent repetitions of the no-interference run (distinct idle
	// "workloads" so each carries fresh measurement noise).
	for rep := 0; rep < soloReplicas; rep++ {
		idle := xen.Idle()
		idle.Name = fmt.Sprintf("idle-rep-%d", rep)
		m, err := p.TB.MeasureAgainstBackground(target, idle)
		if err != nil {
			return nil, err
		}
		ts.Samples = append(ts.Samples, Sample{
			BG:      make([]float64, NumFeatures),
			Runtime: m.Runtime,
			IOPS:    m.IOPS,
		})
	}
	return ts, nil
}
