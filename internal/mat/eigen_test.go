package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	a := NewFromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-10 {
			t.Fatalf("eigenvalues = %v want %v", e.Values, want)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewFromRows([][]float64{{2, 1}, {1, 2}})
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-10 || math.Abs(e.Values[1]-1) > 1e-10 {
		t.Fatalf("values = %v want [3 1]", e.Values)
	}
	// Eigenvector for λ=3 is (1,1)/√2 up to sign.
	v := e.Vectors.Col(0)
	if math.Abs(math.Abs(v[0])-math.Sqrt2/2) > 1e-8 || math.Abs(v[0]-v[1]) > 1e-8 {
		t.Fatalf("first eigenvector = %v", v)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSymmetric(rng, 6)
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild V·Λ·Vᵀ and compare.
	lam := New(6, 6)
	for i, v := range e.Values {
		lam.Set(i, i, v)
	}
	rec := e.Vectors.Mul(lam).Mul(e.Vectors.T())
	if !rec.Equal(a, 1e-8) {
		t.Fatalf("reconstruction error:\n%v vs\n%v", rec, a)
	}
}

func TestSymEigenOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSymmetric(rng, 5)
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	vtv := e.Vectors.T().Mul(e.Vectors)
	if !vtv.Equal(Identity(5), 1e-8) {
		t.Fatalf("VᵀV != I:\n%v", vtv)
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(New(2, 3)); err != ErrShape {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

// Property: trace equals sum of eigenvalues; descending order.
func TestSymEigenTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randomSymmetric(rng, n)
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		tr := 0.0
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		if math.Abs(tr-Sum(e.Values)) > 1e-8*(1+math.Abs(tr)) {
			return false
		}
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly anti-correlated variables.
	x := NewFromRows([][]float64{{1, -1}, {2, -2}, {3, -3}})
	c := Covariance(x)
	if math.Abs(c.At(0, 0)-1) > 1e-12 || math.Abs(c.At(0, 1)+1) > 1e-12 {
		t.Fatalf("cov =\n%v", c)
	}
	if math.Abs(c.At(0, 1)-c.At(1, 0)) > 0 {
		t.Fatal("covariance not symmetric")
	}
}

func TestCovarianceSingleObservation(t *testing.T) {
	c := Covariance(NewFromRows([][]float64{{5, 7}}))
	if c.MaxAbs() != 0 {
		t.Fatal("covariance of one observation must be zero")
	}
}

func TestCovariancePSDProperty(t *testing.T) {
	// Covariance matrices must be positive semidefinite: all eigenvalues >= 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomMatrix(rng, 10+rng.Intn(20), 2+rng.Intn(4))
		e, err := SymEigen(Covariance(x))
		if err != nil {
			return false
		}
		for _, v := range e.Values {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Build SPD matrix A = BᵀB + I.
	b := randomMatrix(rng, 6, 6)
	a := b.T().Mul(b).Add(Identity(6))
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Mul(l.T()).Equal(a, 1e-9) {
		t.Fatal("L·Lᵀ != A")
	}
	rhs := randomVec(rng, 6)
	x, err := CholeskySolve(l, rhs)
	if err != nil {
		t.Fatal(err)
	}
	got := a.MulVec(x)
	for i := range rhs {
		if math.Abs(got[i]-rhs[i]) > 1e-8 {
			t.Fatalf("solve mismatch at %d: %v vs %v", i, got[i], rhs[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); err != ErrSingular {
		t.Fatalf("err = %v want ErrSingular", err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{3, 4}
	if Dot(a, []float64{1, 2}) != 11 {
		t.Fatal("Dot wrong")
	}
	if got := Distance([]float64{0, 0}, a); got != 5 {
		t.Fatalf("Distance = %v", got)
	}
	if got := AddVec(a, a); got[0] != 6 || got[1] != 8 {
		t.Fatalf("AddVec = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) must be 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
}

func TestDistanceOverflow(t *testing.T) {
	// Naive sum-of-squares would overflow here.
	v := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Distance(v, []float64{0, 0}); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Distance overflow-guard failed: %v", got)
	}
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}
