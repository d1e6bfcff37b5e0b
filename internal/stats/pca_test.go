package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tracon/internal/mat"
)

func TestPCAFindsDominantDirection(t *testing.T) {
	// Points along the (1,1) direction with tiny orthogonal noise: the first
	// component must align with (1,1)/√2 (up to sign).
	rng := rand.New(rand.NewSource(21))
	n := 500
	x := mat.New(n, 2)
	for i := 0; i < n; i++ {
		tv := rng.NormFloat64() * 10
		x.SetRow(i, []float64{tv + rng.NormFloat64()*0.01, tv - rng.NormFloat64()*0.01})
	}
	p, err := FitPCACov(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	v0 := math.Abs(p.Comp.At(0, 0))
	v1 := math.Abs(p.Comp.At(1, 0))
	if math.Abs(v0-math.Sqrt2/2) > 0.01 || math.Abs(v1-math.Sqrt2/2) > 0.01 {
		t.Fatalf("first component = (%v,%v), want ±(0.707,0.707)", p.Comp.At(0, 0), p.Comp.At(1, 0))
	}
	if p.Lambda[0] < 100*p.Lambda[1] {
		t.Fatalf("variance not concentrated: %v", p.Lambda)
	}
}

func TestPCAProjectTrainingMeanIsOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 100
	x := mat.New(n, 3)
	for i := 0; i < n; i++ {
		x.SetRow(i, []float64{rng.NormFloat64() + 5, rng.NormFloat64() * 3, rng.Float64()})
	}
	p, err := FitPCACov(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	proj := p.Project(p.Mean)
	for _, c := range proj {
		if math.Abs(c) > 1e-10 {
			t.Fatalf("projection of the mean should be 0, got %v", proj)
		}
	}
}

func TestPCAConstantVariable(t *testing.T) {
	// A constant column must not produce NaNs.
	x := mat.NewFromSlice(4, 2, []float64{1, 7, 2, 7, 3, 7, 4, 7})
	p, err := FitPCACov(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	proj := p.Project([]float64{2.5, 7})
	for _, c := range proj {
		if math.IsNaN(c) {
			t.Fatalf("NaN in projection: %v", proj)
		}
	}
}

func TestPCAEmpty(t *testing.T) {
	if _, err := FitPCACov(mat.New(1, 1), 1); err != nil {
		t.Fatal("single observation should still fit")
	}
}

func TestPCAExplainedVarianceBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 20+rng.Intn(30), 2+rng.Intn(4)
		x := mat.New(n, p)
		for i := 0; i < n; i++ {
			row := make([]float64, p)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			x.SetRow(i, row)
		}
		k := 1 + rng.Intn(p)
		pc, err := FitPCACov(x, k)
		if err != nil {
			return false
		}
		// The retained eigenvalues explain a share of the total variance,
		// the trace of the covariance.
		cov, total := mat.Covariance(x), 0.0
		for j := 0; j < p; j++ {
			total += cov.At(j, j)
		}
		ev := mat.Sum(pc.Lambda) / total
		return ev >= -1e-9 && ev <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNExactMatchReturnsTrainingResponse(t *testing.T) {
	pts := mat.NewFromSlice(3, 2, []float64{0, 0, 1, 0, 0, 1})
	knn := NewKNN(3, pts, []float64{10, 20, 30})
	if got := knn.Predict([]float64{1, 0}); got != 20 {
		t.Fatalf("exact-match prediction = %v want 20", got)
	}
}

func TestKNNWeightsByReciprocalDistance(t *testing.T) {
	// Query at distance 1 from y=0 and distance 3 from y=4 with k=2:
	// weights 1 and 1/3 → prediction (0·1 + 4/3)/(4/3) = 1.
	pts := mat.NewFromSlice(2, 1, []float64{1, 5})
	knn := NewKNN(2, pts, []float64{0, 4})
	got := knn.Predict([]float64{2})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("Predict = %v want 1", got)
	}
}

func TestKNNKLargerThanDataset(t *testing.T) {
	pts := mat.NewFromSlice(2, 1, []float64{0, 2})
	knn := NewKNN(10, pts, []float64{1, 3})
	got := knn.Predict([]float64{1})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("Predict = %v want 2 (both neighbours equidistant)", got)
	}
}

func TestKNNPredictionWithinRangeProperty(t *testing.T) {
	// A weighted mean of training responses can never leave their range.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		pts := mat.New(n, 3)
		ys := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			pts.SetRow(i, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
			ys[i] = rng.NormFloat64() * 100
			lo = math.Min(lo, ys[i])
			hi = math.Max(hi, ys[i])
		}
		knn := NewKNN(3, pts, ys)
		q := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		p := knn.Predict(q)
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNPanicsOnBadConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes must panic")
		}
	}()
	NewKNN(1, mat.New(2, 2), []float64{1})
}
