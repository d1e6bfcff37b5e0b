package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRSolvesExactSquareSystem(t *testing.T) {
	a := NewFromRows([][]float64{{2, 1}, {1, 3}})
	b := []float64{5, 10}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Solution of 2x+y=5, x+3y=10 is x=1, y=3.
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("x = %v want [1 3]", x)
	}
}

func TestQRRecoversPlantedCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, p := 200, 5
	truth := []float64{3, -1.5, 0.25, 2, -4}
	a := New(n, p)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = Dot(a.RawRow(i), truth)
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if math.Abs(x[j]-truth[j]) > 1e-8 {
			t.Fatalf("coef %d = %v want %v", j, x[j], truth[j])
		}
	}
}

func TestQRLeastSquaresResidualOrthogonality(t *testing.T) {
	// For the LS solution, the residual must be orthogonal to every column
	// of A — the defining property of least squares.
	rng := rand.New(rand.NewSource(8))
	a := randomMatrix(rng, 30, 4)
	b := randomVec(rng, 30)
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := subVec(b, a.MulVec(x))
	for j := 0; j < a.Cols(); j++ {
		if d := math.Abs(Dot(a.Col(j), res)); d > 1e-9 {
			t.Fatalf("residual not orthogonal to column %d: %v", j, d)
		}
	}
}

func TestQRSingularDetection(t *testing.T) {
	// Second column is an exact multiple of the first.
	a := NewFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	if _, err := NewQR(a); err != ErrSingular {
		t.Fatalf("err = %v want ErrSingular", err)
	}
}

func TestQRZeroMatrix(t *testing.T) {
	if _, err := NewQR(New(4, 2)); err != ErrSingular {
		t.Fatal("zero matrix must be singular")
	}
}

func TestQRUnderdeterminedRejected(t *testing.T) {
	if _, err := NewQR(New(2, 4)); err != ErrShape {
		t.Fatal("m < n must return ErrShape")
	}
}

func TestQRSolveWrongLength(t *testing.T) {
	a := NewFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err != ErrShape {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

// Property: for random well-conditioned tall systems, no other perturbed
// candidate beats the QR solution in sum of squared residuals.
func TestQRIsArgminProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(20)
		p := 2 + rng.Intn(3)
		a := randomMatrix(rng, n, p)
		b := randomVec(rng, n)
		x, err := SolveLeastSquares(a, b)
		if err != nil {
			return true // degenerate draw; property vacuous
		}
		best := sse(a, b, x)
		for trial := 0; trial < 10; trial++ {
			alt := make([]float64, p)
			for j := range alt {
				alt[j] = x[j] + rng.NormFloat64()*0.1
			}
			if sse(a, b, alt) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRidgeShrinksTowardZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomMatrix(rng, 50, 3)
	b := randomVec(rng, 50)
	x0, err := RidgeSolve(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	xBig, err := RidgeSolve(a, b, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if norm2(xBig) >= norm2(x0) {
		t.Fatalf("ridge with huge penalty did not shrink: %v >= %v", norm2(xBig), norm2(x0))
	}
	if norm2(xBig) > 1e-2 {
		t.Fatalf("huge penalty should drive coefficients near zero, got %v", norm2(xBig))
	}
}

func TestRidgeHandlesCollinearColumns(t *testing.T) {
	// Exactly collinear design: plain QR fails, ridge must still produce a
	// finite solution.
	a := NewFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}})
	b := []float64{1, 2, 3, 4}
	if _, err := SolveLeastSquares(a, b); err == nil {
		t.Fatal("expected singular failure without ridge")
	}
	x, err := RidgeSolve(a, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("ridge solution not finite: %v", x)
		}
	}
}

func sse(a *Matrix, b, x []float64) float64 {
	r := subVec(b, a.MulVec(x))
	return Dot(r, r)
}
