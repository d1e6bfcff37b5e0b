package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tracon/internal/model"
)

// This file keeps the map-based schedulers the dense table replaced, as
// they were, as the reference TestDenseSchedulersMatchReference holds the
// dense ones to. Only the names changed (a ref prefix); the pair formulas
// are the Scorer's own.

// The Scorer's name-based lookups and Load.Fraction below serve the tests
// only: the schedulers read the dense table and the free-VM total.

// PairScore is the predicted cost added by co-locating two fresh tasks,
// relative to each running alone. For the runtime objective it is
// phase-aware, the way the data-center executes pairs: both slow each
// other until the shorter finishes, then the survivor speeds back up.
func (s *Scorer) PairScore(a, b string) (float64, error) {
	t, err := s.table()
	if err != nil {
		return 0, err
	}
	i, err := t.app(a)
	if err != nil {
		return 0, err
	}
	j, err := t.app(b)
	if err != nil {
		return 0, err
	}
	return t.score[i*t.n+j], nil
}

// PlacementScore scores running app on a free VM whose neighbour currently
// runs neighbour (EmptyCategory for an idle machine): the predicted cost
// added to the cluster objective by the co-location. An idle machine adds
// nothing — its forward-looking cost is the pass's empty score.
func (s *Scorer) PlacementScore(app, neighbour string) (float64, error) {
	if neighbour == EmptyCategory {
		return 0, nil
	}
	return s.PairScore(app, neighbour)
}

// Fraction estimates the cluster's effective load in [0,1]: occupied slots
// plus waiting tasks, over capacity.
func (l Load) Fraction(counts Counts) float64 { return l.fraction(counts.Total()) }

// refScorer is the old Scorer memo: an RWMutex-guarded map keyed by the
// sorted name pair, filled in query order.
type refScorer struct {
	s *Scorer

	mu    sync.RWMutex
	cache map[[2]string]float64
}

func newRefScorer(pred model.Predictor, obj Objective) *refScorer {
	return &refScorer{s: NewScorer(pred, obj), cache: map[[2]string]float64{}}
}

// prime fills the memo in the dense table's order, lower ordinal first.
// The memo keeps whichever orientation of a pair was asked first, and the
// phase-aware formula can differ in the last bit between (a, b) and
// (b, a) when both predicted runtimes are equal; priming pins the one
// orientation the table uses, so the comparison is about the schedulers.
func (s *refScorer) prime() error {
	apps := append([]string(nil), s.s.pred.Apps()...)
	sort.Strings(apps)
	for i, a := range apps {
		for _, b := range apps[i:] {
			if _, err := s.PairScore(a, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *refScorer) PairScore(a, b string) (float64, error) {
	key := [2]string{a, b}
	if b < a {
		key = [2]string{b, a} // symmetric; halve the cache
	}
	s.mu.RLock()
	v, ok := s.cache[key]
	s.mu.RUnlock()
	if ok {
		return v, nil
	}
	var score float64
	var err error
	if s.s.obj == MinRuntime {
		score, err = s.s.pairExtraRuntime(a, b)
	} else {
		score, err = s.s.pairExtraIOPS(a, b)
	}
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.cache[key] = score
	s.mu.Unlock()
	return score, nil
}

func (s *refScorer) PlacementScore(app, neighbour string) (float64, error) {
	if neighbour == EmptyCategory {
		return 0, nil
	}
	return s.PairScore(app, neighbour)
}

type refMeanPair map[string]float64

func (s *refScorer) MeanPairOver(queueApps []string) (refMeanPair, error) {
	if len(queueApps) == 0 {
		return refMeanPair{}, nil
	}
	counts := map[string]int{}
	for _, a := range queueApps {
		counts[a]++
	}
	out := make(refMeanPair, len(counts))
	for a := range counts {
		sum := 0.0
		for b, n := range counts {
			sc, err := s.PairScore(a, b)
			if err != nil {
				return nil, err
			}
			sum += sc * float64(n)
		}
		out[a] = sum / float64(len(queueApps))
	}
	return out, nil
}

func (s *refScorer) EmptyScore(app string, meanPair refMeanPair, load float64) (float64, error) {
	if load <= 0 || len(meanPair) == 0 {
		return 0, nil
	}
	if load > 1 {
		load = 1
	}
	mean, ok := meanPair[app]
	if !ok {
		sum := 0.0
		for b := range meanPair {
			sc, err := s.PairScore(app, b)
			if err != nil {
				return 0, err
			}
			sum += sc
		}
		mean = sum / float64(len(meanPair))
	}
	return load * mean, nil
}

func (s *refScorer) CompanionScore(candidate, head string, meanPair refMeanPair) (float64, error) {
	pair, err := s.PairScore(candidate, head)
	if err != nil {
		return 0, err
	}
	if len(meanPair) == 0 {
		return pair, nil
	}
	return pair - meanPair[candidate], nil
}

func (s *refScorer) bestCategory(app string, counts Counts, emptyScore float64) (string, float64, bool, error) {
	best := ""
	bestScore := 0.0
	found := false
	for _, cat := range refSortedCategories(counts) {
		if counts[cat] <= 0 {
			continue
		}
		var sc float64
		var err error
		if cat == EmptyCategory {
			sc = emptyScore
		} else {
			sc, err = s.PlacementScore(app, cat)
			if err != nil {
				return "", 0, false, err
			}
		}
		if !found || sc < bestScore-1e-12 {
			best, bestScore, found = cat, sc, true
		}
	}
	return best, bestScore, found, nil
}

func refSortedCategories(counts Counts) []string {
	out := make([]string, 0, len(counts))
	for c := range counts {
		out = append(out, c)
	}
	sort.Strings(out) // EmptyCategory ("") sorts first
	return out
}

func refTake(c Counts, category, app string) error {
	if c[category] <= 0 {
		return fmt.Errorf("sched: no free VM with neighbour %q", category)
	}
	if category == EmptyCategory {
		c[EmptyCategory] -= 2
		if c[EmptyCategory] < 0 {
			return fmt.Errorf("sched: empty-category underflow")
		}
		c[app]++
	} else {
		c[category]--
	}
	return nil
}

func refApps(batch []Task) []string {
	out := make([]string, len(batch))
	for i, t := range batch {
		out[i] = t.App
	}
	return out
}

type refMIOS struct{ Scorer *refScorer }

func (m *refMIOS) Schedule(batch []Task, counts Counts, load Load) ([]Placement, error) {
	meanPair, err := m.Scorer.MeanPairOver(refApps(batch))
	if err != nil {
		return nil, err
	}
	var out []Placement
	for _, t := range batch {
		p, ok, err := refPlaceOne(m.Scorer, t, counts, meanPair, load)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out, nil
}

func refPlaceOne(s *refScorer, t Task, counts Counts, meanPair refMeanPair, load Load) (Placement, bool, error) {
	emptyScore, err := s.EmptyScore(t.App, meanPair, load.Fraction(counts))
	if err != nil {
		return Placement{}, false, err
	}
	cat, _, ok, err := s.bestCategory(t.App, counts, emptyScore)
	if err != nil || !ok {
		return Placement{}, false, err
	}
	if err := refTake(counts, cat, t.App); err != nil {
		return Placement{}, false, err
	}
	return Placement{Task: t, Category: cat}, true, nil
}

type refMIBS struct {
	Scorer    *refScorer
	forceHead bool
}

func (m *refMIBS) Schedule(batch []Task, counts Counts, load Load) ([]Placement, error) {
	queue := append([]Task(nil), batch...)
	meanPair, err := m.Scorer.MeanPairOver(refApps(batch))
	if err != nil {
		return nil, err
	}
	var out []Placement
	first := true
	for len(queue) > 0 {
		headIdx := -1
		headScore := 0.0
		if m.forceHead && first {
			headIdx = 0
		} else {
			for i, t := range queue {
				emptyScore, err := m.Scorer.EmptyScore(t.App, meanPair, load.Fraction(counts))
				if err != nil {
					return nil, err
				}
				_, sc, ok, err := m.Scorer.bestCategory(t.App, counts, emptyScore)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				if headIdx < 0 || sc < headScore-1e-12 {
					headIdx, headScore = i, sc
				}
			}
		}
		first = false
		if headIdx < 0 {
			break
		}
		head := queue[headIdx]
		p1, ok, err := refPlaceOne(m.Scorer, head, counts, meanPair, load)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, p1)
		queue = append(queue[:headIdx], queue[headIdx+1:]...)
		if len(queue) == 0 {
			break
		}

		bestIdx, bestScore := -1, 0.0
		for i, t := range queue {
			sc, err := m.Scorer.CompanionScore(t.App, head.App, meanPair)
			if err != nil {
				return nil, err
			}
			if bestIdx < 0 || sc < bestScore-1e-12 {
				bestIdx, bestScore = i, sc
			}
		}
		var p2 Placement
		var ok2 bool
		commit := false
		if p1.Category == EmptyCategory && counts[head.App] > 0 {
			pairSc, err := m.Scorer.PlacementScore(queue[bestIdx].App, head.App)
			if err != nil {
				return nil, err
			}
			commit = counts[EmptyCategory] == 0
			if !commit {
				emptySc, err := m.Scorer.EmptyScore(queue[bestIdx].App, meanPair, load.Fraction(counts))
				if err != nil {
					return nil, err
				}
				commit = pairSc <= emptySc
			}
		}
		if commit {
			p2 = Placement{Task: queue[bestIdx], Category: head.App}
			if err := refTake(counts, head.App, queue[bestIdx].App); err != nil {
				return nil, err
			}
			ok2 = true
		} else {
			p2, ok2, err = refPlaceOne(m.Scorer, queue[bestIdx], counts, meanPair, load)
			if err != nil {
				return nil, err
			}
		}
		if !ok2 {
			break
		}
		out = append(out, p2)
		queue = append(queue[:bestIdx], queue[bestIdx+1:]...)
	}
	return out, nil
}

type refMIX struct{ Scorer *refScorer }

func (m *refMIX) Schedule(batch []Task, counts Counts, load Load) ([]Placement, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	inner := &refMIBS{Scorer: m.Scorer}
	forced := &refMIBS{Scorer: m.Scorer, forceHead: true}

	var bestPl []Placement
	bestScore := 0.0
	for rot := -1; rot < len(batch); rot++ {
		runner := forced
		var rotated []Task
		if rot < 0 {
			runner = inner
			rotated = batch
		} else {
			rotated = make([]Task, 0, len(batch))
			rotated = append(rotated, batch[rot])
			rotated = append(rotated, batch[:rot]...)
			rotated = append(rotated, batch[rot+1:]...)
		}

		trial := counts.Clone()
		pl, err := runner.Schedule(rotated, trial, load)
		if err != nil {
			return nil, err
		}
		sc, err := m.totalScore(pl)
		if err != nil {
			return nil, err
		}
		if bestPl == nil || len(pl) > len(bestPl) ||
			(len(pl) == len(bestPl) && sc < bestScore-1e-12) {
			bestPl, bestScore = pl, sc
		}
	}
	for _, p := range bestPl {
		if err := refTake(counts, p.Category, p.Task.App); err != nil {
			return nil, err
		}
	}
	return bestPl, nil
}

func (m *refMIX) totalScore(pl []Placement) (float64, error) {
	total := 0.0
	for _, p := range pl {
		sc, err := m.Scorer.PlacementScore(p.Task.App, p.Category)
		if err != nil {
			return 0, err
		}
		total += sc
	}
	return total, nil
}

// synthPred is a seeded predictor whose apps come in a shuffled order and
// include three shapes the tie-breaks exist for: "calm", which neither
// suffers nor causes interference (its pairs score exactly 0, tying an
// idle machine at zero load), and "twin-a"/"twin-b", identical except that
// twin-b presses a neighbour a few ulps less, so their pair scores differ
// by far less than the 1e-12 tie margin.
type synthPred struct {
	apps        []string
	solo, io    map[string]float64
	sens, press map[string]float64
}

func newSynthPred(seed int64, k int) *synthPred {
	rng := rand.New(rand.NewSource(seed))
	p := &synthPred{solo: map[string]float64{}, io: map[string]float64{}, sens: map[string]float64{}, press: map[string]float64{}}
	add := func(name string, solo, io, sens, press float64) {
		p.apps = append(p.apps, name)
		p.solo[name], p.io[name], p.sens[name], p.press[name] = solo, io, sens, press
	}
	for i := 0; i < k; i++ {
		add(fmt.Sprintf("app%03d", i), 50+rng.Float64()*200, 10+rng.Float64()*500, rng.Float64()*2, rng.Float64()*2)
	}
	add("calm", 120, 40, 0, 0)
	solo, io, sens, press := 80+rng.Float64()*40, 100+rng.Float64()*100, 0.2+rng.Float64(), 0.2+rng.Float64()
	add("twin-a", solo, io, sens, press)
	add("twin-b", solo, io, sens, press*(1-1e-15))
	rng.Shuffle(len(p.apps), func(i, j int) { p.apps[i], p.apps[j] = p.apps[j], p.apps[i] })
	return p
}

func (p *synthPred) lookup(app string) error {
	if _, ok := p.solo[app]; !ok {
		return fmt.Errorf("%w: %q", model.ErrUnknownApp, app)
	}
	return nil
}

func (p *synthPred) PredictRuntime(target, corunner string) (float64, error) {
	if err := p.lookup(target); err != nil {
		return 0, err
	}
	if corunner == "" {
		return p.solo[target], nil
	}
	if err := p.lookup(corunner); err != nil {
		return 0, err
	}
	return p.solo[target] * (1 + p.sens[target]*p.press[corunner]), nil
}

func (p *synthPred) PredictIOPS(target, corunner string) (float64, error) {
	rt, err := p.PredictRuntime(target, corunner)
	if err != nil {
		return 0, err
	}
	return p.io[target] * p.solo[target] / rt, nil
}

func (p *synthPred) SoloRuntime(target string) (float64, error) { return p.PredictRuntime(target, "") }
func (p *synthPred) SoloIOPS(target string) (float64, error)    { return p.PredictIOPS(target, "") }
func (p *synthPred) Apps() []string                             { return append([]string(nil), p.apps...) }

// genCase draws one Schedule input over apps: duplicate apps in the batch,
// zero and absent categories, odd empty counts (an underflow error), load
// fractions of exactly 0 and saturated past 1, empty batches, full
// clusters, batches longer than a pass keeps on the stack, and now and
// then an unknown app in the batch or an unknown category in the counts.
func genCase(rng *rand.Rand, apps []string) ([]Task, Counts, Load) {
	pool := apps
	if len(apps) > 3 && rng.Intn(2) == 0 {
		pool = apps[:2+rng.Intn(3)] // few distinct apps: many duplicates
	}
	n := rng.Intn(11)
	switch rng.Intn(200) {
	case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9:
		n = 0
	case 10:
		n = smallPass + 1 + rng.Intn(8)
	}
	batch := make([]Task, n)
	for i := range batch {
		batch[i] = Task{ID: int64(100 + i), App: pool[rng.Intn(len(pool))]}
		if rng.Intn(400) == 0 {
			batch[i].App = "nope"
		}
	}
	counts := Counts{}
	if rng.Intn(12) != 0 { // else a full cluster
		counts[EmptyCategory] = 2 * rng.Intn(6)
		if rng.Intn(40) == 0 {
			counts[EmptyCategory]++
		}
		for _, a := range apps {
			switch r := rng.Intn(6); {
			case r < 2: // absent
			case r == 2:
				counts[a] = 0
			default:
				counts[a] = rng.Intn(4)
			}
		}
	}
	if rng.Intn(200) == 0 {
		counts["nope"] = rng.Intn(2)
	}
	free := counts.Total()
	load := Load{TotalSlots: free + rng.Intn(3)*rng.Intn(20)}
	switch rng.Intn(4) {
	case 0: // fraction 0 when nothing is occupied
	case 1:
		load.Queued = load.TotalSlots + rng.Intn(50) // past saturation
	default:
		load.Queued = rng.Intn(n + 1)
	}
	if rng.Intn(30) == 0 {
		load.TotalSlots = 0 // degenerate: counts as fully loaded
	}
	return batch, counts, load
}

// TestDenseSchedulersMatchReference holds MIOS, MIBS and MIX on the dense
// table to the map-based reference above: the same placements (task order
// and category) and the same error class on ≥ 10 000 seeded cases per
// policy and objective, over the trained 8-app library and over synthetic
// predictors built to hit the tie-breaks. The dense schedulers must also
// leave counts as they found it.
func TestDenseSchedulersMatchReference(t *testing.T) {
	cases := 10000
	if testing.Short() {
		cases = 1500
	}
	preds := []model.Predictor{testLibrary(t), newSynthPred(1, 3), newSynthPred(2, 9), newSynthPred(3, smallPass+4)}
	for _, obj := range []Objective{MinRuntime, MaxIOPS} {
		type pair struct {
			dense Scheduler
			ref   interface {
				Schedule([]Task, Counts, Load) ([]Placement, error)
			}
			apps []string
		}
		var byPolicy [3][]pair
		for _, pred := range preds {
			s, r := NewScorer(pred, obj), newRefScorer(pred, obj)
			if err := r.prime(); err != nil {
				t.Fatal(err)
			}
			apps := pred.Apps()
			byPolicy[0] = append(byPolicy[0], pair{&MIOS{Scorer: s}, &refMIOS{Scorer: r}, apps})
			byPolicy[1] = append(byPolicy[1], pair{&MIBS{Scorer: s, QueueLen: 8}, &refMIBS{Scorer: r}, apps})
			byPolicy[2] = append(byPolicy[2], pair{&MIX{Scorer: s, QueueLen: 8}, &refMIX{Scorer: r}, apps})
		}
		for policy, pairs := range byPolicy {
			rng := rand.New(rand.NewSource(int64(1000*policy) + int64(obj)))
			var placed, errs int
			for c := 0; c < cases; c++ {
				pr := pairs[c%len(pairs)]
				batch, counts, load := genCase(rng, pr.apps)
				before := counts.Clone()
				got, gotErr := pr.dense.Schedule(batch, counts, load)
				want, wantErr := pr.ref.Schedule(batch, before.Clone(), load)
				where := func() string {
					return fmt.Sprintf("%s case %d: batch %v counts %v load %+v", pr.dense.Name(), c, refApps(batch), before, load)
				}
				if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, model.ErrUnknownApp) != errors.Is(wantErr, model.ErrUnknownApp) {
					t.Fatalf("%s: error %v, reference %v", where(), gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got %v\nwant %v", where(), got, want)
				}
				if !reflect.DeepEqual(counts, before) {
					t.Fatalf("%s: Schedule modified counts to %v", where(), counts)
				}
				placed += len(got)
				if gotErr != nil {
					errs++
				}
			}
			t.Logf("%s: %d cases, %d placements, %d errors", pairs[0].dense.Name(), cases, placed, errs)
		}
	}
}
