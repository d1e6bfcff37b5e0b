package stats

import (
	"errors"
	"math"

	"tracon/internal/mat"
)

// Fit is a fitted regression model over a fixed term set. It is the common
// representation for the paper's LM (linear terms only) and NLM (degree-2
// terms): in both cases prediction is intercept + Σ coefᵢ·termᵢ(x).
type Fit struct {
	Terms     []Term
	Intercept float64
	Coef      []float64 // one per term
	SSE       float64   // sum of squared errors on the training set
	N         int       // training observations
}

// ErrNoData is returned when a fit is attempted on an empty training set.
var ErrNoData = errors.New("stats: empty training set")

// ErrUnderdetermined is returned when there are fewer observations than
// parameters.
var ErrUnderdetermined = errors.New("stats: fewer observations than parameters")

// Predict evaluates the fitted model on raw variable vector x.
func (f *Fit) Predict(x []float64) float64 {
	y := f.Intercept
	for k, t := range f.Terms {
		y += f.Coef[k] * t.Eval(x)
	}
	return y
}

// K returns the number of free parameters (terms + intercept). AIC uses it.
func (f *Fit) K() int { return len(f.Coef) + 1 }

// AIC returns the Akaike information criterion of the fit, using the
// Gaussian log-likelihood form the paper cites ([1]):
//
//	AIC = n·ln(SSE/n) + 2k
//
// (additive constants dropped — only differences matter to stepwise).
// Lower is better. A variance floor keeps a perfect interpolating fit from
// producing -Inf and freezing the stepwise search.
func (f *Fit) AIC() float64 {
	n := float64(f.N)
	varHat := f.SSE / n
	if varHat < 1e-12 {
		varHat = 1e-12
	}
	return n*math.Log(varHat) + 2*float64(f.K())
}

// WLS fits y ≈ intercept + Σ coef·term(x) by weighted least squares over
// the raw observation matrix x (observations in rows): it minimizes
// Σ wᵢ·(yᵢ−ŷᵢ)², and a nil weights slice means equal weights (ordinary
// least squares). If the design matrix is rank-deficient it falls back to
// a lightly ridge-regularized solve, which keeps stepwise search moving
// instead of aborting on collinear candidate models. TRACON's model
// fitting uses wᵢ = 1/yᵢ² so that the optimized quantity matches the
// paper's relative error metric |ŷ−y|/y. The reported SSE is the weighted one (it is the
// likelihood-relevant quantity for AIC-guided selection).
func WLS(x *mat.Matrix, y, weights []float64, terms []Term) (*Fit, error) {
	n := x.Rows()
	if n == 0 || len(y) == 0 {
		return nil, ErrNoData
	}
	if len(y) != n {
		return nil, mat.ErrShape
	}
	if weights != nil && len(weights) != n {
		return nil, mat.ErrShape
	}
	p := len(terms) + 1
	if n < p {
		return nil, ErrUnderdetermined
	}
	design := mat.New(n, p)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		row := design.RawRow(i)
		row[0] = 1
		raw := x.RawRow(i)
		for k, t := range terms {
			row[k+1] = t.Eval(raw)
		}
		s := 1.0
		if weights != nil {
			if weights[i] < 0 {
				return nil, errors.New("stats: negative weight")
			}
			s = math.Sqrt(weights[i])
			for k := range row {
				row[k] *= s
			}
		}
		rhs[i] = y[i] * s
	}
	beta, err := mat.SolveLeastSquares(design, rhs)
	if err != nil {
		// Collinear design: fall back to ridge so the caller still gets a
		// usable (if shrunk) model.
		beta, err = mat.RidgeSolve(design, rhs, 1e-8)
		if err != nil {
			return nil, err
		}
	}
	fit := &Fit{
		Terms:     append([]Term(nil), terms...),
		Intercept: beta[0],
		Coef:      append([]float64(nil), beta[1:]...),
		N:         n,
	}
	fit.SSE = computeWSSE(x, y, weights, fit)
	return fit, nil
}

func computeWSSE(x *mat.Matrix, y, weights []float64, f *Fit) float64 {
	sse := 0.0
	for i := 0; i < x.Rows(); i++ {
		r := y[i] - f.Predict(x.RawRow(i))
		if weights != nil {
			sse += weights[i] * r * r
		} else {
			sse += r * r
		}
	}
	return sse
}
