package stats

import (
	"math"
	"math/rand"
	"testing"

	"tracon/internal/mat"
)

// Build a data set where y depends only on x0 and x1·x2, with noise, and
// check stepwise recovers essentially that support.
func TestStepwiseFindsTrueSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 300
	x := mat.New(n, 4)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 4)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x.SetRow(i, row)
		y[i] = 2 + 3*row[0] + 4*row[1]*row[2] + rng.NormFloat64()*0.05
	}
	fit, err := Stepwise(x, y, QuadraticTerms(4), DefaultStepwise())
	if err != nil {
		t.Fatal(err)
	}
	has := map[string]float64{}
	for k, term := range fit.Terms {
		has[term.String()] = fit.Coef[k]
	}
	if c, ok := has["x0"]; !ok || math.Abs(c-3) > 0.1 {
		t.Fatalf("x0 not recovered: %v", has)
	}
	if c, ok := has["x1*x2"]; !ok || math.Abs(c-4) > 0.1 {
		t.Fatalf("x1*x2 not recovered: %v", has)
	}
	// The selected model should be small: true support is 2 terms; allow a
	// little slack for noise-selected extras.
	if len(fit.Terms) > 6 {
		t.Fatalf("stepwise kept %d terms; AIC should prune aggressively", len(fit.Terms))
	}
}

func TestStepwiseBeatsOrMatchesFullModelAIC(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 120
	x := mat.New(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		x.SetRow(i, row)
		y[i] = 1 + row[0] + rng.NormFloat64()*0.1
	}
	cand := QuadraticTerms(3)
	full, err := WLS(x, y, nil, cand)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Stepwise(x, y, cand, DefaultStepwise())
	if err != nil {
		t.Fatal(err)
	}
	if sel.AIC() > full.AIC()+1e-9 {
		t.Fatalf("stepwise AIC %v worse than full model %v", sel.AIC(), full.AIC())
	}
}

func TestStepwiseConstantResponse(t *testing.T) {
	// With a constant response, the intercept-only model should win.
	x := mat.NewFromSlice(6, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8, 2, 1, 4, 3})
	y := []float64{7, 7, 7, 7, 7, 7}
	fit, err := Stepwise(x, y, QuadraticTerms(2), DefaultStepwise())
	if err != nil {
		t.Fatal(err)
	}
	if len(fit.Terms) != 0 {
		t.Fatalf("expected intercept-only model, got %v", fit.Terms)
	}
	if math.Abs(fit.Intercept-7) > 1e-9 {
		t.Fatalf("intercept = %v", fit.Intercept)
	}
}

func TestStepwiseDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 80
	x := mat.New(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		x.SetRow(i, row)
		y[i] = row[0] - row[2] + rng.NormFloat64()*0.2
	}
	a, err := Stepwise(x, y, QuadraticTerms(3), DefaultStepwise())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stepwise(x, y, QuadraticTerms(3), DefaultStepwise())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Terms) != len(b.Terms) {
		t.Fatal("stepwise not deterministic")
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] || a.Coef[i] != b.Coef[i] {
			t.Fatal("stepwise not deterministic in terms/coefs")
		}
	}
}

func TestGaussNewtonMatchesOLSOnLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 150
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := []float64{rng.NormFloat64(), rng.NormFloat64()}
		x.SetRow(i, row)
		y[i] = 2 + row[0] - 3*row[1] + 0.7*row[0]*row[1] + rng.NormFloat64()*0.1
	}
	terms := QuadraticTerms(2)
	ols, err := WLS(x, y, nil, terms)
	if err != nil {
		t.Fatal(err)
	}
	gn, err := FitGaussNewton(x, y, terms, GaussNewtonConfig{Damping: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gn.SSE-ols.SSE)/ols.SSE > 1e-4 {
		t.Fatalf("GN SSE %v vs OLS SSE %v", gn.SSE, ols.SSE)
	}
}

func TestGaussNewtonNonlinearResidual(t *testing.T) {
	// Fit y = exp(a·t) with a_true = 0.5; genuinely nonlinear in the
	// parameter, so this exercises more than one iteration.
	ts := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}
	aTrue := 0.5
	ys := make([]float64, len(ts))
	for i, tv := range ts {
		ys[i] = math.Exp(aTrue * tv)
	}
	resFn := func(theta []float64) []float64 {
		out := make([]float64, len(ts))
		for i, tv := range ts {
			out[i] = ys[i] - math.Exp(theta[0]*tv)
		}
		return out
	}
	theta, sse, err := GaussNewton(resFn, []float64{0.1}, GaussNewtonConfig{Damping: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta[0]-aTrue) > 1e-6 {
		t.Fatalf("a = %v want %v (sse %v)", theta[0], aTrue, sse)
	}
}

func TestGaussNewtonNoProgressOnOptimal(t *testing.T) {
	// Residual independent of theta: solver must not loop forever and must
	// report no progress.
	resFn := func(theta []float64) []float64 { return []float64{1, -1} }
	_, _, err := GaussNewton(resFn, []float64{0}, GaussNewtonConfig{Damping: true, MaxIter: 5})
	if err != ErrNoProgress {
		t.Fatalf("err = %v want ErrNoProgress", err)
	}
}

func TestFitGaussNewtonConstantResponse(t *testing.T) {
	x := mat.NewFromSlice(4, 1, []float64{1, 2, 3, 4})
	y := []float64{5, 5, 5, 5}
	fit, err := FitGaussNewton(x, y, LinearTerms(1), GaussNewtonConfig{Damping: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Predict([]float64{10})-5) > 1e-6 {
		t.Fatalf("constant fit predicts %v", fit.Predict([]float64{10}))
	}
}
