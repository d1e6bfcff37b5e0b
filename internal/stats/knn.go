package stats

import (
	"math"
	"sort"

	"tracon/internal/mat"
)

// KNNRegressor is a distance-weighted k-nearest-neighbour estimator in an
// embedded space. The paper's weighted mean method (WMM) is exactly this
// with k = 3 in the space of the first four principal components, weights
// being reciprocals of the Euclidean distances.
type KNNRegressor struct {
	K      int
	Points *mat.Matrix // training points in the embedded space (rows)
	Y      []float64   // responses
}

// NewKNN builds the regressor. It panics on inconsistent shapes because
// those are programming errors, not runtime conditions.
func NewKNN(k int, points *mat.Matrix, y []float64) *KNNRegressor {
	if points.Rows() != len(y) {
		panic(mat.ErrShape)
	}
	if k <= 0 {
		panic("stats: k must be positive")
	}
	return &KNNRegressor{K: k, Points: points, Y: y}
}

// Predict returns the reciprocal-distance-weighted mean of the K nearest
// training responses. An exact match (distance 0) returns that response
// directly, which is both the mathematical limit and what we want when
// the query is a training point.
func (r *KNNRegressor) Predict(q []float64) float64 {
	n := r.Points.Rows()
	type neighbour struct {
		d float64
		i int
	}
	nbrs := make([]neighbour, n)
	for i := 0; i < n; i++ {
		nbrs[i] = neighbour{d: mat.Distance(r.Points.RawRow(i), q), i: i}
	}
	sort.Slice(nbrs, func(a, b int) bool {
		if nbrs[a].d != nbrs[b].d {
			return nbrs[a].d < nbrs[b].d
		}
		return nbrs[a].i < nbrs[b].i
	})
	k := r.K
	if k > n {
		k = n
	}
	wsum, ysum := 0.0, 0.0
	for _, nb := range nbrs[:k] {
		if nb.d < 1e-12 {
			return r.Y[nb.i]
		}
		w := 1 / nb.d
		wsum += w
		ysum += w * r.Y[nb.i]
	}
	if wsum == 0 || math.IsNaN(ysum) {
		return mat.Mean(r.Y)
	}
	return ysum / wsum
}
