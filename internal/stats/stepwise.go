package stats

import (
	"tracon/internal/mat"
)

// StepwiseConfig controls the bidirectional stepwise search ([14] in the
// paper) that picks a term subset minimizing AIC.
type StepwiseConfig struct {
	// MaxSteps bounds the number of add/remove moves; each move refits up
	// to |candidates| models, so this also bounds total work.
	MaxSteps int
	// Weights, when non-nil, makes every candidate fit a weighted least
	// squares fit (see WLS).
	Weights []float64
}

// DefaultStepwise mirrors the paper's usage: forward-backward from the
// empty model, accept any AIC improvement, generous step budget.
func DefaultStepwise() StepwiseConfig {
	return StepwiseConfig{MaxSteps: 200}
}

// Stepwise selects a subset of candidate terms by bidirectional search
// from the intercept-only model: at each step it evaluates every
// single-term addition and every single-term removal, takes the move with
// the best AIC, and stops when no move improves AIC at all (R's step()
// default). The returned Fit is the best model found; it is never nil on
// success (the intercept-only model is always a valid candidate).
func Stepwise(x *mat.Matrix, y []float64, candidates []Term, cfg StepwiseConfig) (*Fit, error) {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 200
	}
	cand := append([]Term(nil), candidates...)
	sortTerms(cand)

	inModel := make([]bool, len(cand))
	current, err := fitSubset(x, y, cfg.Weights, cand, inModel)
	if err != nil {
		return nil, err
	}
	bestAIC := current.AIC()

	for step := 0; step < cfg.MaxSteps; step++ {
		bestMove := -1
		bestMoveAIC := bestAIC
		var bestFit *Fit

		for i := range cand {
			inModel[i] = !inModel[i] // try toggling term i
			f, err := fitSubset(x, y, cfg.Weights, cand, inModel)
			inModel[i] = !inModel[i] // restore
			if err != nil {
				continue // e.g. underdetermined after adding; skip move
			}
			if aic := f.AIC(); aic < bestMoveAIC {
				bestMove, bestMoveAIC, bestFit = i, aic, f
			}
		}
		if bestMove < 0 {
			break
		}
		inModel[bestMove] = !inModel[bestMove]
		bestAIC = bestMoveAIC
		current = bestFit
	}
	return current, nil
}

func fitSubset(x *mat.Matrix, y, weights []float64, cand []Term, inModel []bool) (*Fit, error) {
	sub := make([]Term, 0, len(cand))
	for i, in := range inModel {
		if in {
			sub = append(sub, cand[i])
		}
	}
	return WLS(x, y, weights, sub)
}
