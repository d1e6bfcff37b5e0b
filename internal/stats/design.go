// Package stats implements the statistical-learning machinery the TRACON
// paper relies on: ordinary least squares, AIC-guided stepwise model
// selection, Gauss-Newton nonlinear fitting, principal component analysis
// and the distance-weighted k-nearest-neighbour estimator behind the
// weighted mean method (WMM).
//
// Everything is built on internal/mat and the standard library only.
package stats

import (
	"fmt"
	"sort"
)

// Term describes one regression term over a raw variable vector x:
//
//   - {I: i, J: -1} is the linear term x[i]
//   - {I: i, J: i}  is the square term x[i]²
//   - {I: i, J: j}  is the interaction x[i]·x[j] (i < j canonically)
//
// The intercept is implicit in every model and never appears as a Term.
type Term struct {
	I, J int
}

// Linear returns the linear term for variable i.
func Linear(i int) Term { return Term{I: i, J: -1} }

// Square returns the pure quadratic term for variable i.
func Square(i int) Term { return Term{I: i, J: i} }

// Interaction returns the cross term x[i]·x[j], canonicalized so I < J.
func Interaction(i, j int) Term {
	if i > j {
		i, j = j, i
	}
	return Term{I: i, J: j}
}

// Eval computes the term's value on raw variable vector x.
func (t Term) Eval(x []float64) float64 {
	if t.J < 0 {
		return x[t.I]
	}
	return x[t.I] * x[t.J]
}

// String renders the term for diagnostics, e.g. "x3", "x1*x4", "x2^2".
func (t Term) String() string {
	switch {
	case t.J < 0:
		return fmt.Sprintf("x%d", t.I)
	case t.I == t.J:
		return fmt.Sprintf("x%d^2", t.I)
	default:
		return fmt.Sprintf("x%d*x%d", t.I, t.J)
	}
}

// LinearTerms returns the p first-degree terms x0..x(p-1) — the term set of
// the paper's linear model, equation (1).
func LinearTerms(p int) []Term {
	terms := make([]Term, 0, p)
	for i := 0; i < p; i++ {
		terms = append(terms, Linear(i))
	}
	return terms
}

// QuadraticTerms returns the full degree-2 expansion over p raw variables:
// all linear terms, all squares, and all pairwise interactions. For p = 8
// this is the paper's equation (2) term set (44 terms + intercept).
func QuadraticTerms(p int) []Term {
	terms := LinearTerms(p)
	for i := 0; i < p; i++ {
		terms = append(terms, Square(i))
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			terms = append(terms, Interaction(i, j))
		}
	}
	return terms
}

// sortTerms orders terms deterministically: linear first, then squares,
// then interactions, each by index. Stepwise selection relies on this for
// reproducible tie-breaking.
func sortTerms(terms []Term) {
	rank := func(t Term) (int, int, int) {
		switch {
		case t.J < 0:
			return 0, t.I, 0
		case t.I == t.J:
			return 1, t.I, 0
		default:
			return 2, t.I, t.J
		}
	}
	sort.Slice(terms, func(a, b int) bool {
		ka, ia, ja := rank(terms[a])
		kb, ib, jb := rank(terms[b])
		if ka != kb {
			return ka < kb
		}
		if ia != ib {
			return ia < ib
		}
		return ja < jb
	})
}
