package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tracon/internal/mat"
)

func TestTermEvalAndString(t *testing.T) {
	x := []float64{2, 3, 5}
	cases := []struct {
		term Term
		want float64
		str  string
	}{
		{Linear(0), 2, "x0"},
		{Linear(2), 5, "x2"},
		{Square(1), 9, "x1^2"},
		{Interaction(0, 2), 10, "x0*x2"},
		{Interaction(2, 0), 10, "x0*x2"}, // canonicalized
	}
	for _, c := range cases {
		if got := c.term.Eval(x); got != c.want {
			t.Errorf("%v.Eval = %v want %v", c.term, got, c.want)
		}
		if got := c.term.String(); got != c.str {
			t.Errorf("String = %q want %q", got, c.str)
		}
	}
}

func TestQuadraticTermCount(t *testing.T) {
	// p linear + p squares + p(p-1)/2 interactions.
	for _, p := range []int{1, 2, 4, 8} {
		want := p + p + p*(p-1)/2
		if got := len(QuadraticTerms(p)); got != want {
			t.Errorf("QuadraticTerms(%d) = %d terms, want %d", p, got, want)
		}
	}
	// Equation (2) of the paper: 8 raw variables → 44 terms + intercept.
	if got := len(QuadraticTerms(8)); got != 44 {
		t.Errorf("paper expansion has %d terms, want 44", got)
	}
}

func TestExpandRow(t *testing.T) {
	terms := []Term{Linear(0), Square(0), Interaction(0, 1)}
	want := []float64{3, 9, 12}
	for i, term := range terms {
		if got := term.Eval([]float64{3, 4}); got != want[i] {
			t.Fatalf("%v.Eval = %v want %v", term, got, want[i])
		}
	}
}

func TestOLSRecoversLinearTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 100
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x.SetRow(i, []float64{a, b})
		y[i] = 4 + 2*a - 3*b
	}
	fit, err := WLS(x, y, nil, LinearTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Intercept-4) > 1e-8 || math.Abs(fit.Coef[0]-2) > 1e-8 || math.Abs(fit.Coef[1]+3) > 1e-8 {
		t.Fatalf("fit = intercept %v coef %v", fit.Intercept, fit.Coef)
	}
	if fit.SSE > 1e-12 {
		t.Fatalf("noiseless fit should have ~0 SSE, got %v", fit.SSE)
	}
}

func TestOLSRecoversQuadraticTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 200
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.SetRow(i, []float64{a, b})
		y[i] = 1 + a - b + 0.5*a*a + 2*a*b
	}
	fit, err := WLS(x, y, nil, QuadraticTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	pred := fit.Predict([]float64{1, 2})
	want := 1 + 1 - 2 + 0.5 + 4.0
	if math.Abs(pred-want) > 1e-6 {
		t.Fatalf("Predict = %v want %v", pred, want)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := WLS(mat.New(1, 1), nil, nil, nil); err != ErrNoData {
		t.Fatalf("empty y: err = %v", err)
	}
	x := mat.New(2, 3)
	if _, err := WLS(x, []float64{1, 2}, nil, QuadraticTerms(3)); err != ErrUnderdetermined {
		t.Fatalf("underdetermined: err = %v", err)
	}
	if _, err := WLS(x, []float64{1}, nil, nil); err != mat.ErrShape {
		t.Fatalf("shape: err = %v", err)
	}
}

func TestOLSCollinearFallsBackToRidge(t *testing.T) {
	// x1 == x0 exactly: design is singular, but OLS should still return a
	// finite model via the ridge fallback.
	x := mat.NewFromSlice(4, 2, []float64{1, 1, 2, 2, 3, 3, 4, 4})
	y := []float64{2, 4, 6, 8}
	fit, err := WLS(x, y, nil, LinearTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if p := fit.Predict([]float64{5, 5}); math.Abs(p-10) > 0.01 {
		t.Fatalf("ridge-fallback prediction = %v want ≈10", p)
	}
}

func TestAICPenalizesParameters(t *testing.T) {
	// Same SSE, more parameters → larger AIC.
	a := &Fit{SSE: 10, N: 50, Coef: make([]float64, 2)}
	b := &Fit{SSE: 10, N: 50, Coef: make([]float64, 10)}
	if !(a.AIC() < b.AIC()) {
		t.Fatalf("AIC must penalize parameters: %v vs %v", a.AIC(), b.AIC())
	}
}

func TestAICRewardsFit(t *testing.T) {
	a := &Fit{SSE: 10, N: 50, Coef: make([]float64, 2)}
	b := &Fit{SSE: 100, N: 50, Coef: make([]float64, 2)}
	if !(a.AIC() < b.AIC()) {
		t.Fatal("AIC must reward lower SSE")
	}
}

func TestAICFiniteOnPerfectFit(t *testing.T) {
	f := &Fit{SSE: 0, N: 10, Coef: make([]float64, 1)}
	if math.IsInf(f.AIC(), 0) || math.IsNaN(f.AIC()) {
		t.Fatal("AIC must stay finite for SSE = 0")
	}
}

// A perfect fit leaves no residual: R² = 1 − SSE/TSS is 1.
func TestRSquared(t *testing.T) {
	x := mat.NewFromSlice(4, 1, []float64{1, 2, 3, 4})
	y := []float64{2, 4, 6, 8}
	fit, err := WLS(x, y, nil, LinearTerms(1))
	if err != nil {
		t.Fatal(err)
	}
	tss := 0.0
	for _, v := range y {
		tss += (v - 5) * (v - 5)
	}
	if r2 := 1 - fit.SSE/tss; math.Abs(r2-1) > 1e-10 {
		t.Fatalf("perfect fit R² = %v", r2)
	}
}

// Property: OLS residuals sum to ~0 whenever an intercept is present.
func TestOLSResidualMeanZeroProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		x := mat.New(n, 2)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x.SetRow(i, []float64{rng.NormFloat64(), rng.NormFloat64()})
			y[i] = rng.NormFloat64() * 5
		}
		fit, err := WLS(x, y, nil, LinearTerms(2))
		if err != nil {
			return true
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += y[i] - fit.Predict(x.RawRow(i))
		}
		return math.Abs(sum) < 1e-7*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
