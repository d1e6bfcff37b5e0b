package sched

import (
	"fmt"
	"sort"
	"sync/atomic"

	"tracon/internal/model"
)

// Scorer turns model predictions into placement scores (lower is better).
// Scores are expressed as the absolute predicted cost a decision *adds* to
// the objective: extra total seconds for the runtime objective, lost
// aggregate IOPS for the throughput objective.
//
// The application set is small and predictions are deterministic, so on
// first use a Scorer evaluates every pair of its predictor's apps once into
// an immutable dense table, and the schedulers never consult the predictor
// again (a model swap builds a new Scorer). The table is published through
// an atomic pointer, so lookups take no lock and goroutines racing to make
// the first use each compute the same table: the parallel experiment
// runner shares one Scorer across simulations.
type Scorer struct {
	pred model.Predictor
	obj  Objective
	tab  atomic.Pointer[table]
}

// NewScorer builds a scorer over a predictor for the given objective.
func NewScorer(pred model.Predictor, obj Objective) *Scorer {
	return &Scorer{pred: pred, obj: obj}
}

// Objective returns the optimization target.
func (s *Scorer) Objective() Objective { return s.obj }

// table is a Scorer's dense pair-score table. Ordinal 0 is EmptyCategory
// and ordinals 1..n-1 are the predictor's apps in sorted-name order, so
// walking ordinals in order is the schedulers' tie-break: idle machines
// first, then lexicographic.
type table struct {
	names []string       // ordinal → name
	ords  map[string]int // name → ordinal, for names[1:]
	n     int
	// score[a*n+c] is PlacementScore(names[a], names[c]): 0 beside an idle
	// machine (c == 0), the symmetric pair score otherwise. Row 0 is unused.
	score []float64
}

// table returns the Scorer's table, building it on first use. A pair the
// predictor cannot score fails the build, and so every pass, not only the
// passes that would consult that pair.
func (s *Scorer) table() (*table, error) {
	if t := s.tab.Load(); t != nil {
		return t, nil
	}
	pair := s.pairExtraRuntime
	if s.obj != MinRuntime {
		pair = s.pairExtraIOPS
	}
	apps := append([]string(nil), s.pred.Apps()...)
	sort.Strings(apps)
	names := append([]string{EmptyCategory}, apps...)
	n := len(names)
	t := &table{names: names, ords: make(map[string]int, n), n: n, score: make([]float64, n*n)}
	for a := 1; a < n; a++ {
		t.ords[names[a]] = a
		for b := a; b < n; b++ {
			v, err := pair(names[a], names[b])
			if err != nil {
				return nil, err
			}
			t.score[a*n+b], t.score[b*n+a] = v, v
		}
	}
	if !s.tab.CompareAndSwap(nil, t) {
		t = s.tab.Load() // an equal table won the race
	}
	return t, nil
}

// app returns an app's ordinal. An app outside the table is the error the
// predictor lookups it replaces return.
func (t *table) app(name string) (int, error) {
	if i, ok := t.ords[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("sched: %w: %q is not in the %d-app score table", model.ErrUnknownApp, name, t.n-1)
}

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

// pairRuntimes predicts the realized runtimes of a and b started together
// from a cold start, with the survivor's remaining work rescaled once the
// shorter task completes — mirroring the simulator's execution model, but
// computed purely from model predictions.
func (s *Scorer) pairRuntimes(a, b string) (sa, sb, rtA, rtB float64, err error) {
	sa, err = s.pred.SoloRuntime(a)
	if err != nil {
		return
	}
	sb, err = s.pred.SoloRuntime(b)
	if err != nil {
		return
	}
	pa, err := s.pred.PredictRuntime(a, b)
	if err != nil {
		return
	}
	pb, err := s.pred.PredictRuntime(b, a)
	if err != nil {
		return
	}
	// A model can mispredict below solo; interference never speeds you up.
	if pa < sa {
		pa = sa
	}
	if pb < sb {
		pb = sb
	}
	if sa <= 0 || sb <= 0 {
		err = fmt.Errorf("sched: non-positive solo runtime for %q/%q", a, b)
		return
	}
	ra, rb := sa/pa, sb/pb // progress rates while paired
	if pa <= pb {
		// a finishes at pa; b then completes its remaining work alone.
		remB := sb - rb*pa
		if remB < 0 {
			remB = 0
		}
		rtA, rtB = pa, pa+remB
	} else {
		remA := sa - ra*pb
		if remA < 0 {
			remA = 0
		}
		rtA, rtB = pb+remA, pb
	}
	return
}

// pairExtraRuntime predicts the added total runtime (seconds) of pairing.
func (s *Scorer) pairExtraRuntime(a, b string) (float64, error) {
	sa, sb, rtA, rtB, err := s.pairRuntimes(a, b)
	if err != nil {
		return 0, err
	}
	return (rtA - sa) + (rtB - sb), nil
}

// pairExtraIOPS predicts the aggregate throughput lost by pairing a and b.
// Per eq. 4, a task's contribution is ops/runtime, so the loss follows
// directly from the phase-aware runtimes (which lean on the more accurate
// runtime models) with each task's request volume estimated from its solo
// profile: ops ≈ soloIOPS · soloRuntime.
func (s *Scorer) pairExtraIOPS(a, b string) (float64, error) {
	sa, sb, rtA, rtB, err := s.pairRuntimes(a, b)
	if err != nil {
		return 0, err
	}
	ioA, err := s.pred.SoloIOPS(a)
	if err != nil {
		return 0, err
	}
	ioB, err := s.pred.SoloIOPS(b)
	if err != nil {
		return 0, err
	}
	opsA, opsB := ioA*sa, ioB*sb
	return (opsA/sa - opsA/rtA) + (opsB/sb - opsB/rtB), nil
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

// smallPass bounds the apps and the batch a pass keeps on its caller's
// stack; larger ones spill to the heap.
const smallPass = 32

// passBuf is the backing store of a small pass, declared on the Schedule
// call's stack so that the call allocates nothing but its result.
type passBuf struct {
	count, mult [smallPass]int
	mean        [smallPass]float64
	apps, queue [smallPass]int
}

// fit returns buf[:n] when it is large enough, else a fresh slice.
func fit[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// pass is one Schedule call's working state, dense by ordinal.
type pass struct {
	t    *table
	load Load
	// count is the free VMs per neighbour ordinal, free their sum.
	count []int
	free  int
	// mean is each batch app's mean pairing cost against the whole batch.
	// Computing it once per call keeps batch scheduling O(l²) instead of
	// O(l³) (the 1,024-machine static runs schedule 2,048-task batches).
	mean []float64
	apps []int // batch position → app ordinal
	// queue is MIBS's scratch list of unplaced batch positions.
	queue []int
}

// decision is one placement of a pass: a batch position and the ordinal of
// the neighbour category it takes.
type decision struct{ pos, cat int }

// newPass reads counts and the batch into ordinals. An app in the batch, or
// a category with free VMs, that the table does not know wraps
// model.ErrUnknownApp. An empty batch needs no pass: it gets the zero pass
// and no error.
func (s *Scorer) newPass(batch []Task, counts Counts, load Load, buf *passBuf) (pass, error) {
	if len(batch) == 0 {
		return pass{}, nil
	}
	t, err := s.table()
	if err != nil {
		return pass{}, err
	}
	p := pass{t: t, load: load, count: fit(buf.count[:], t.n), mean: fit(buf.mean[:], t.n),
		apps: fit(buf.apps[:], len(batch)), queue: fit(buf.queue[:], len(batch))}
	for cat, k := range counts {
		if k == 0 {
			continue // a spent category is never scored
		}
		o := 0
		if cat != EmptyCategory {
			if o, err = t.app(cat); err != nil {
				return pass{}, err
			}
		}
		p.count[o] = k
		p.free += k
	}
	mult := fit(buf.mult[:], t.n)
	for i, task := range batch {
		if p.apps[i], err = t.app(task.App); err != nil {
			return pass{}, err
		}
		mult[p.apps[i]]++
	}
	// Sums run in ordinal order, so a mean does not depend on map order.
	for a, ma := range mult {
		if ma == 0 {
			continue
		}
		row, sum := t.score[a*t.n:(a+1)*t.n], 0.0
		for b, mb := range mult {
			if mb > 0 {
				sum += row[b] * float64(mb)
			}
		}
		p.mean[a] = sum / float64(len(batch))
	}
	return p, nil
}

// emptyScore scores placing app ordinal a on an idle machine, accounting
// for the future: under load, the idle machine will soon receive a
// neighbour drawn from the current workload mix, so its true cost is the
// load-weighted mean pairing cost against the batch. Without this, every
// policy degenerates to "spread out", and batch pairing (the heart of
// MIBS) never engages.
func (p *pass) emptyScore(a int) float64 {
	f := p.load.fraction(p.free)
	if f <= 0 {
		return 0
	}
	return f * p.mean[a]
}

// best finds the free category with the minimum placement score for app
// ordinal a, scoring idle machines at empty. Ordinal order puts idle
// machines first and then names lexicographically, and only a score better
// by more than 1e-12 displaces the incumbent, so ties favour idle machines
// and then lexicographic order.
func (p *pass) best(a int, empty float64) (cat int, score float64, ok bool) {
	row := p.t.score[a*p.t.n : (a+1)*p.t.n]
	for c, k := range p.count {
		if k <= 0 {
			continue
		}
		sc := row[c]
		if c == 0 {
			sc = empty
		}
		if !ok || sc < score-1e-12 {
			cat, score, ok = c, sc, true
		}
	}
	return cat, score, ok
}

// take consumes one free VM of category cat for app ordinal a and updates
// the bookkeeping for a two-VM machine: placing onto an empty machine
// converts that machine's other free slot into an a-neighboured slot;
// placing onto a half-full machine removes its last free slot.
// The caller has checked that cat has a free VM.
func (p *pass) take(cat, a int) error {
	p.free--
	if cat == 0 {
		// An idle machine holds two free slots in the empty category.
		if p.count[0] -= 2; p.count[0] < 0 {
			return fmt.Errorf("sched: empty-category underflow")
		}
		p.count[a]++
	} else {
		p.count[cat]--
	}
	return nil
}

// placeOne runs one MIOS step: pick the best category for app ordinal a and
// consume the slot.
func (p *pass) placeOne(a int) (cat int, ok bool, err error) {
	if cat, _, ok = p.best(a, p.emptyScore(a)); ok {
		err = p.take(cat, a)
	}
	return cat, ok && err == nil, err
}

// placements turns a pass's decisions into the Scheduler's result (nil
// when nothing was placed).
func (p *pass) placements(batch []Task, ds []decision) []Placement {
	if len(ds) == 0 {
		return nil
	}
	out := make([]Placement, len(ds))
	for i, d := range ds {
		out[i] = Placement{Task: batch[d.pos], Category: p.t.names[d.cat]}
	}
	return out
}
