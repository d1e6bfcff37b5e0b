package stats

import (
	"tracon/internal/mat"
)

// PCA is a fitted principal-component analysis: the mean of the training
// data plus the leading eigenvectors of its covariance. The paper's
// weighted mean method projects application characteristics onto the
// first four components before computing neighbour distances.
type PCA struct {
	Mean   []float64   // per-variable mean of the training data
	Comp   *mat.Matrix // p×k matrix: columns are principal directions
	Lambda []float64   // eigenvalues (variance explained per component)
}

// FitPCACov computes covariance PCA on the raw (centred, unscaled) data —
// the textbook form cited by the paper ([18]), and what its weighted mean
// method uses: Euclidean distances in the space of the leading components
// of the raw monitoring data.
func FitPCACov(x *mat.Matrix, k int) (*PCA, error) {
	n, p := x.Dims()
	if n == 0 {
		return nil, ErrNoData
	}
	if k <= 0 || k > p {
		k = p
	}
	pca := &PCA{Mean: make([]float64, p)}
	for j := 0; j < p; j++ {
		pca.Mean[j] = mat.Mean(x.Col(j))
	}
	z := mat.New(n, p)
	for i := 0; i < n; i++ {
		src := x.RawRow(i)
		dst := z.RawRow(i)
		for j := 0; j < p; j++ {
			dst[j] = src[j] - pca.Mean[j]
		}
	}
	eig, err := mat.SymEigen(mat.Covariance(z))
	if err != nil {
		return nil, err
	}
	pca.Comp = eig.Vectors.SelectColumns(indices(k))
	pca.Lambda = append([]float64(nil), eig.Values[:k]...)
	return pca, nil
}

// Project maps a raw observation into the k-dimensional principal space.
func (p *PCA) Project(x []float64) []float64 {
	if len(x) != len(p.Mean) {
		panic(mat.ErrShape)
	}
	z := make([]float64, len(x))
	for j := range x {
		z[j] = x[j] - p.Mean[j]
	}
	k := p.Comp.Cols()
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		s := 0.0
		for j := range z {
			s += p.Comp.At(j, c) * z[j]
		}
		out[c] = s
	}
	return out
}

func indices(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}
