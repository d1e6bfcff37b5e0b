package stats

import (
	"fmt"
	"math/rand"
	"sort"

	"tracon/internal/mat"
)

// CART regression trees and a bagged forest. The paper's future work asks
// for "different modeling techniques to build a more accurate model"; a
// tree ensemble is the natural candidate: it handles the cliff-shaped
// interference response (a handful of competing random requests already
// costs whole seeks) that polynomials smooth over, at the price of more
// training data appetite and less interpretability.

// TreeConfig bounds a regression tree.
type TreeConfig struct {
	// MaxDepth limits the tree height (default 6).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 3).
	MinLeaf int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 3
	}
	return c
}

// treeNode is one node of a fitted tree.
type treeNode struct {
	feature   int // split feature (-1 for a leaf)
	threshold float64
	value     float64 // leaf prediction (mean of its samples)
	left      *treeNode
	right     *treeNode
}

// RegressionTree is a fitted CART regression tree.
type RegressionTree struct {
	root *treeNode
	p    int // input dimensionality
}

// growTree recursively builds nodes. features limits the candidate split
// features (nil = all), which the forest uses for decorrelation.
func growTree(x *mat.Matrix, y []float64, idx []int, cfg TreeConfig, depth int, features []int) *treeNode {
	node := &treeNode{feature: -1, value: meanAt(y, idx)}
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return node
	}
	bestFeature, bestThr, bestGain := -1, 0.0, 0.0
	baseSSE := sseAt(y, idx)
	cand := features
	if cand == nil {
		cand = make([]int, x.Cols())
		for j := range cand {
			cand[j] = j
		}
	}
	for _, j := range cand {
		f, thr, gain := bestSplit(x, y, idx, j, cfg.MinLeaf, baseSSE)
		if f && gain > bestGain+1e-12 {
			bestFeature, bestThr, bestGain = j, thr, gain
		}
	}
	if bestFeature < 0 {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if x.At(i, bestFeature) <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	node.feature = bestFeature
	node.threshold = bestThr
	node.left = growTree(x, y, left, cfg, depth+1, features)
	node.right = growTree(x, y, right, cfg, depth+1, features)
	return node
}

// bestSplit scans feature j for the threshold with maximum SSE reduction.
func bestSplit(x *mat.Matrix, y []float64, idx []int, j, minLeaf int, baseSSE float64) (ok bool, thr, gain float64) {
	type pair struct{ v, y float64 }
	pts := make([]pair, len(idx))
	for k, i := range idx {
		pts[k] = pair{x.At(i, j), y[i]}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].v < pts[b].v })

	// Prefix sums for O(1) left/right SSE at every cut.
	n := len(pts)
	sum, sumsq := make([]float64, n+1), make([]float64, n+1)
	for k, p := range pts {
		sum[k+1] = sum[k] + p.y
		sumsq[k+1] = sumsq[k] + p.y*p.y
	}
	sseRange := func(lo, hi int) float64 { // [lo, hi)
		cnt := float64(hi - lo)
		if cnt == 0 {
			return 0
		}
		s := sum[hi] - sum[lo]
		sq := sumsq[hi] - sumsq[lo]
		return sq - s*s/cnt
	}
	best := -1.0
	for cut := minLeaf; cut <= n-minLeaf; cut++ {
		if pts[cut-1].v == pts[cut].v {
			continue // no threshold separates equal values
		}
		g := baseSSE - sseRange(0, cut) - sseRange(cut, n)
		if g > best {
			best = g
			thr = (pts[cut-1].v + pts[cut].v) / 2
		}
	}
	if best <= 0 {
		return false, 0, 0
	}
	return true, thr, best
}

// Predict evaluates the tree on one input.
func (t *RegressionTree) Predict(x []float64) float64 {
	if len(x) != t.p {
		panic(mat.ErrShape)
	}
	node := t.root
	for node.feature >= 0 {
		if x[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.value
}

// ForestConfig bounds a bagged regression forest.
type ForestConfig struct {
	// Trees is the ensemble size (default 40).
	Trees int
	// Tree bounds each member.
	Tree TreeConfig
	// Seed fixes the bootstrap and feature sampling.
	Seed int64
	// FeatureFraction of features considered per tree (default 1: bagging
	// only; lower it toward 0.6 for random-forest-style decorrelation).
	FeatureFraction float64
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 40
	}
	if c.FeatureFraction <= 0 || c.FeatureFraction > 1 {
		c.FeatureFraction = 1
	}
	c.Tree = c.Tree.withDefaults()
	return c
}

// Forest is a bagged ensemble of regression trees.
type Forest struct {
	trees []*RegressionTree
}

// FitForest trains the ensemble on bootstrap resamples of (x, y).
func FitForest(x *mat.Matrix, y []float64, cfg ForestConfig) (*Forest, error) {
	n, p := x.Dims()
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("stats: forest needs matching non-empty x and y")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{}
	nFeat := int(cfg.FeatureFraction*float64(p) + 0.5)
	if nFeat < 1 {
		nFeat = 1
	}
	for b := 0; b < cfg.Trees; b++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		var features []int
		if nFeat < p {
			perm := rng.Perm(p)
			features = append([]int(nil), perm[:nFeat]...)
			sort.Ints(features)
		}
		tree := &RegressionTree{p: p}
		tree.root = growTree(x, y, idx, cfg.Tree, 0, features)
		f.trees = append(f.trees, tree)
	}
	return f, nil
}

// Predict returns the ensemble mean.
func (f *Forest) Predict(x []float64) float64 {
	s := 0.0
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sseAt(y []float64, idx []int) float64 {
	m := meanAt(y, idx)
	s := 0.0
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}
