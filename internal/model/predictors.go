package model

import (
	"fmt"

	"tracon/internal/mat"
	"tracon/internal/stats"
)

// Kind selects a model family.
type Kind int

// The model families compared in the paper, plus the paper's own ablation
// (NLM trained without the fourth characteristic, global Dom0 CPU).
const (
	WMM Kind = iota
	LM
	NLM
	NLMNoDom0
	// Forest is a bagged regression-tree ensemble — the "different
	// modeling technique" extension of the paper's future work. It handles
	// the cliff-shaped low-rate region of the interference response that
	// polynomials smooth over.
	Forest
)

// String returns the family label used in the figures.
func (k Kind) String() string {
	switch k {
	case WMM:
		return "WMM"
	case LM:
		return "LM"
	case NLM:
		return "NLM"
	case NLMNoDom0:
		return "NLM-noDom0"
	case Forest:
		return "Forest"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// predictor is one trained response model.
type predictor interface {
	predict(bg []float64) float64
}

// fitPredictor is implemented by stats.Fit-backed predictors. Predictions
// are clamped to a band around the observed training range: a polynomial
// extrapolating outside the profiled workload space can produce arbitrarily
// wrong values, and TRACON knows the physically plausible response range
// from profiling.
type fitPredictor struct {
	fit      *stats.Fit
	cols     []int // raw feature indices used (ablation support)
	lo, hi   float64
	clamping bool
}

func (f *fitPredictor) predict(bg []float64) float64 {
	x := pick(bg, f.cols)
	v := f.fit.Predict(x)
	if f.clamping {
		if v < f.lo {
			v = f.lo
		} else if v > f.hi {
			v = f.hi
		}
	}
	return v
}

// responseBand returns the clamp band for a response vector: [½·min, 1.5·max].
func responseBand(y []float64) (lo, hi float64) {
	s := stats.Summarize(y)
	return 0.5 * s.Min, 1.5 * s.Max
}

// relativeWeights returns wᵢ = 1/yᵢ², the weights under which least squares
// minimizes the paper's relative-error metric. Responses near zero are
// floored to avoid infinite weight.
func relativeWeights(y []float64) []float64 {
	w := make([]float64, len(y))
	for i, v := range y {
		a := v
		if a < 0 {
			a = -a
		}
		if a < 1e-6 {
			a = 1e-6
		}
		w[i] = 1 / (a * a)
	}
	return w
}

// forestPredictor wraps a bagged regression-tree ensemble.
type forestPredictor struct {
	forest *stats.Forest
	cols   []int
}

func (f *forestPredictor) predict(bg []float64) float64 {
	return f.forest.Predict(pick(bg, f.cols))
}

// wmmPredictor is the weighted mean method: project onto the leading
// principal components of the training features, then take the
// reciprocal-distance-weighted mean of the three nearest profiled
// responses ([21]-style, Sec. 3.1).
type wmmPredictor struct {
	pca  *stats.PCA
	knn  *stats.KNNRegressor
	cols []int
}

func (w *wmmPredictor) predict(bg []float64) float64 {
	return w.knn.Predict(w.pca.Project(pick(bg, w.cols)))
}

// wmmNeighbours is the paper's k: the three nearest data points.
const wmmNeighbours = 3

// wmmComponents is the paper's embedding dimension: the first four
// principal components.
const wmmComponents = 4

// weightedSSE evaluates a fit under the relative weights, so Gauss-Newton
// refits are compared on the same objective as the stepwise selection.
func weightedSSE(x *mat.Matrix, y []float64, f *stats.Fit) float64 {
	w := relativeWeights(y)
	sse := 0.0
	for i := 0; i < x.Rows(); i++ {
		r := y[i] - f.Predict(x.RawRow(i))
		sse += w[i] * r * r
	}
	return sse
}

func pick(x []float64, cols []int) []float64 {
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = x[c]
	}
	return out
}

// allCols returns [0..n).
func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// featureCols returns the raw feature indices a model kind consumes.
func featureCols(k Kind) []int {
	if k == NLMNoDom0 {
		// Drop the global Dom0 CPU characteristic (index 3).
		return []int{0, 1, 2}
	}
	return allCols(NumFeatures)
}

// trainPredictor fits one response model of the given kind.
func trainPredictor(k Kind, x *mat.Matrix, y []float64) (predictor, error) {
	cols := featureCols(k)
	sub := x.SelectColumns(cols)
	switch k {
	case WMM:
		comps := wmmComponents
		if comps > len(cols) {
			comps = len(cols)
		}
		pca, err := stats.FitPCACov(sub, comps)
		if err != nil {
			return nil, fmt.Errorf("model: WMM PCA: %w", err)
		}
		pts := mat.New(sub.Rows(), comps)
		for i := 0; i < sub.Rows(); i++ {
			pts.SetRow(i, pca.Project(sub.RawRow(i)))
		}
		return &wmmPredictor{pca: pca, knn: stats.NewKNN(wmmNeighbours, pts, y), cols: cols}, nil

	case LM:
		cfg := stats.DefaultStepwise()
		cfg.Weights = relativeWeights(y)
		fit, err := stats.Stepwise(sub, y, stats.LinearTerms(len(cols)), cfg)
		if err != nil {
			return nil, fmt.Errorf("model: LM stepwise: %w", err)
		}
		lo, hi := responseBand(y)
		return &fitPredictor{fit: fit, cols: cols, lo: lo, hi: hi, clamping: true}, nil

	case Forest:
		f, err := stats.FitForest(sub, y, stats.ForestConfig{Trees: 60, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("model: forest: %w", err)
		}
		return &forestPredictor{forest: f, cols: cols}, nil

	case NLM, NLMNoDom0:
		cfg := stats.DefaultStepwise()
		cfg.Weights = relativeWeights(y)
		fit, err := stats.Stepwise(sub, y, stats.QuadraticTerms(len(cols)), cfg)
		if err != nil {
			return nil, fmt.Errorf("model: NLM stepwise: %w", err)
		}
		// Refit the selected term set with the Gauss-Newton solver, the
		// paper's estimation procedure for the nonlinear models. For a
		// polynomial model this lands on the least-squares optimum; the
		// call keeps the training path faithful and guards the stepwise
		// result (we keep whichever fit has lower weighted SSE).
		gn, err := stats.FitGaussNewton(sub, y, fit.Terms, stats.GaussNewtonConfig{Damping: true})
		if err == nil && weightedSSE(sub, y, gn) < fit.SSE {
			fit = gn
		}
		lo, hi := responseBand(y)
		return &fitPredictor{fit: fit, cols: cols, lo: lo, hi: hi, clamping: true}, nil

	default:
		return nil, fmt.Errorf("model: unknown kind %v", k)
	}
}

// AppModel is a trained interference model for one target application:
// one predictor per response.
type AppModel struct {
	App  string
	Kind Kind

	runtime predictor
	iops    predictor

	// SoloRuntime and SoloIOPS are the target's no-interference baselines,
	// used to clamp predictions and to express slowdowns.
	SoloRuntime float64
	SoloIOPS    float64
}

// Train fits an AppModel of the given kind from a training set.
func Train(ts *TrainingSet, k Kind) (*AppModel, error) {
	min := NumFeatures + 2
	if k == NLM || k == NLMNoDom0 {
		// Enough rows to support the quadratic expansion.
		min = len(stats.QuadraticTerms(len(featureCols(k)))) + 2
	}
	if len(ts.Samples) < min {
		return nil, fmt.Errorf("%w: %d samples for %v (need >= %d)", ErrTooFewSamples, len(ts.Samples), k, min)
	}
	x := ts.Matrix()
	rt, err := trainPredictor(k, x, ts.ResponseVec(Runtime))
	if err != nil {
		return nil, err
	}
	io, err := trainPredictor(k, x, ts.ResponseVec(IOPS))
	if err != nil {
		return nil, err
	}
	m := &AppModel{App: ts.App, Kind: k, runtime: rt, iops: io}
	m.SoloRuntime = m.PredictRuntime(zeroFeatures())
	m.SoloIOPS = m.PredictIOPS(zeroFeatures())
	return m, nil
}

// PredictRuntime predicts the target's runtime when co-located with a
// workload having the given characteristics. Predictions are floored at a
// small positive value; a regression can extrapolate below zero at the
// edge of the training domain, and a negative runtime is meaningless to
// the scheduler.
func (m *AppModel) PredictRuntime(bg []float64) float64 {
	v := m.runtime.predict(bg)
	if v < 1e-6 {
		v = 1e-6
	}
	return v
}

// PredictIOPS predicts the target's throughput under the given
// interference, floored at zero.
func (m *AppModel) PredictIOPS(bg []float64) float64 {
	v := m.iops.predict(bg)
	if v < 0 {
		v = 0
	}
	return v
}

// zeroFeatures is the characteristics vector of an idle neighbour.
func zeroFeatures() []float64 { return make([]float64, NumFeatures) }
