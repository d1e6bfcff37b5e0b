package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tracon/internal/mat"
)

// fitTree grows one tree on all of (x, y): a forest member without the
// bootstrap or feature sampling.
func fitTree(x *mat.Matrix, y []float64, cfg TreeConfig) *RegressionTree {
	n, p := x.Dims()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return &RegressionTree{p: p, root: growTree(x, y, idx, cfg.withDefaults(), 0, nil)}
}

// depth returns the height of the tree below n (0 for a lone leaf).
func depth(n *treeNode) int {
	if n == nil || n.feature < 0 {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}

func TestTreeFitsStepFunction(t *testing.T) {
	// A step no polynomial matches exactly: y = 10 for x<0.5, 20 otherwise.
	n := 200
	x := mat.New(n, 1)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		v := rng.Float64()
		x.Set(i, 0, v)
		if v < 0.5 {
			y[i] = 10
		} else {
			y[i] = 20
		}
	}
	tree := fitTree(x, y, TreeConfig{})
	if got := tree.Predict([]float64{0.1}); math.Abs(got-10) > 0.5 {
		t.Fatalf("left side predicts %v", got)
	}
	if got := tree.Predict([]float64{0.9}); math.Abs(got-20) > 0.5 {
		t.Fatalf("right side predicts %v", got)
	}
}

func TestTreeRespectsDepthAndLeafLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.SetRow(i, []float64{rng.Float64(), rng.Float64()})
		y[i] = rng.NormFloat64()
	}
	tree := fitTree(x, y, TreeConfig{MaxDepth: 3, MinLeaf: 10})
	if d := depth(tree.root); d > 3 {
		t.Fatalf("depth %d exceeds limit", d)
	}
}

func TestTreeConstantResponseIsLeaf(t *testing.T) {
	x := mat.NewFromSlice(8, 1, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	y := []float64{7, 7, 7, 7, 7, 7, 7, 7}
	tree := fitTree(x, y, TreeConfig{})
	if depth(tree.root) != 0 {
		t.Fatalf("constant response grew depth %d", depth(tree.root))
	}
	if tree.Predict([]float64{100}) != 7 {
		t.Fatal("leaf value wrong")
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := FitForest(mat.New(1, 1), nil, ForestConfig{}); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
	tree := fitTree(mat.NewFromSlice(2, 1, []float64{1, 2}), []float64{1, 2}, TreeConfig{MinLeaf: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong predict dimensionality did not panic")
		}
	}()
	tree.Predict([]float64{1, 2})
}

func TestForestBeatsSingleTreeOnNoisyCliff(t *testing.T) {
	// A cliff with noise: ensembles should generalize better than one tree.
	gen := func(rng *rand.Rand, n int) (*mat.Matrix, []float64) {
		x := mat.New(n, 2)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			a, b := rng.Float64()*10, rng.Float64()*10
			x.SetRow(i, []float64{a, b})
			base := 100.0
			if a > 2 {
				base = 100 / (1 + a - 2)
			}
			y[i] = base + b + rng.NormFloat64()*5
		}
		return x, y
	}
	rng := rand.New(rand.NewSource(3))
	trainX, trainY := gen(rng, 300)
	testX, testY := gen(rng, 300)

	tree := fitTree(trainX, trainY, TreeConfig{})
	forest, err := FitForest(trainX, trainY, ForestConfig{Trees: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mse := func(pred func([]float64) float64) float64 {
		s := 0.0
		for i := 0; i < testX.Rows(); i++ {
			d := pred(testX.RawRow(i)) - testY[i]
			s += d * d
		}
		return s / float64(testX.Rows())
	}
	if mse(forest.Predict) >= mse(tree.Predict) {
		t.Fatalf("forest MSE %v not below tree MSE %v", mse(forest.Predict), mse(tree.Predict))
	}
}

func TestForestDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := mat.New(100, 3)
	y := make([]float64, 100)
	for i := 0; i < 100; i++ {
		x.SetRow(i, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		y[i] = rng.Float64() * 100
	}
	a, err := FitForest(x, y, ForestConfig{Trees: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitForest(x, y, ForestConfig{Trees: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.3, 0.6, 0.9}
	if a.Predict(q) != b.Predict(q) {
		t.Fatal("same seed, different forests")
	}
	c, err := FitForest(x, y, ForestConfig{Trees: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Predict(q) == c.Predict(q) {
		t.Fatal("different seeds produced identical forests (suspicious)")
	}
}

// Property: predictions never leave the range of the training responses.
func TestTreePredictionInRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		x := mat.New(n, 2)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			x.SetRow(i, []float64{rng.NormFloat64(), rng.NormFloat64()})
			y[i] = rng.NormFloat64() * 100
			lo, hi = math.Min(lo, y[i]), math.Max(hi, y[i])
		}
		tree := fitTree(x, y, TreeConfig{})
		forest, err := FitForest(x, y, ForestConfig{Trees: 5, Seed: seed})
		if err != nil {
			return false
		}
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		pt, pf := tree.Predict(q), forest.Predict(q)
		return pt >= lo-1e-9 && pt <= hi+1e-9 && pf >= lo-1e-9 && pf <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestForestFeatureSubsampling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := mat.New(120, 4)
	y := make([]float64, 120)
	for i := 0; i < 120; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		x.SetRow(i, row)
		y[i] = row[0]*10 + row[2]*5
	}
	f, err := FitForest(x, y, ForestConfig{Trees: 30, Seed: 2, FeatureFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.trees) != 30 {
		t.Fatalf("size %d", len(f.trees))
	}
	// Still captures the signal reasonably.
	pred := f.Predict([]float64{1, 0, 1, 0})
	if math.Abs(pred-15) > 5 {
		t.Fatalf("prediction %v too far from 15", pred)
	}
}
