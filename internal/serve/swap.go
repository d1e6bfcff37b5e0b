package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tracon/internal/model"
	"tracon/internal/monitor"
	"tracon/internal/sched"
)

// ModelSet is the serving daemon's active model family: the trained
// library plus the scorer and scheduler built over it, swapped atomically
// under an RWMutex. Requests snapshot a View (read lock, pointer copies)
// and keep using it even if a swap lands mid-flight — the old generation's
// objects stay valid, so no request is ever dropped or served a torn
// half-old half-new model.
type ModelSet struct {
	policy   string
	queueLen int
	cache    *PredCache // nil disables prediction caching

	mu        sync.RWMutex
	gen       uint64
	lib       *model.Library
	pred      model.Predictor
	scheduler sched.Scheduler
	known     map[string]bool

	swaps atomic.Uint64

	// onSwap fires after each completed hot-swap with the new generation
	// (the journal's gen_swap event). Set once before serving starts.
	onSwap func(gen uint64)
}

// ModelView is one generation's immutable serving surface.
type ModelView struct {
	Gen       uint64
	Lib       *model.Library
	Pred      model.Predictor
	Scheduler sched.Scheduler
	Known     map[string]bool
}

// NewModelSet builds the initial generation over lib. policy is one of
// "fifo", "mios" (the default, when empty), "mibs", "mix"; queueLen
// applies to the batch policies and defaults to 4. The scheduler
// minimizes total runtime. cache may be nil to score without memoization.
func NewModelSet(lib *model.Library, policy string, queueLen int, cache *PredCache) (*ModelSet, error) {
	if policy == "" {
		policy = "mios"
	}
	if queueLen <= 0 {
		queueLen = 4
	}
	ms := &ModelSet{
		policy:   policy,
		queueLen: queueLen,
		cache:    cache,
	}
	if err := ms.install(lib, 1); err != nil {
		return nil, err
	}
	return ms, nil
}

// install builds generation gen's serving surface and publishes it.
func (ms *ModelSet) install(lib *model.Library, gen uint64) error {
	if lib == nil {
		return fmt.Errorf("serve: nil library")
	}
	var pred model.Predictor = lib
	if ms.cache != nil {
		cp, err := NewCachingPredictor(lib, ms.cache, gen)
		if err != nil {
			return err
		}
		pred = cp
	}
	scorer := sched.NewScorer(pred, sched.MinRuntime)
	scheduler, err := sched.New(ms.policy, ms.queueLen, scorer)
	if err != nil {
		return err
	}
	known := map[string]bool{}
	for _, a := range lib.Apps() {
		known[a] = true
	}
	ms.mu.Lock()
	ms.gen = gen
	ms.lib = lib
	ms.pred = pred
	ms.scheduler = scheduler
	ms.known = known
	ms.mu.Unlock()
	return nil
}

// Swap atomically replaces the served library with a retrained one. The
// expensive construction (caching predictor, scorer, scheduler) happens
// before the write lock is taken, so readers block only for the pointer
// flip.
func (ms *ModelSet) Swap(lib *model.Library) error {
	ms.mu.RLock()
	next := ms.gen + 1
	ms.mu.RUnlock()
	if err := ms.install(lib, next); err != nil {
		return err
	}
	ms.swaps.Add(1)
	if ms.onSwap != nil {
		ms.onSwap(next)
	}
	return nil
}

// OnSwap registers the post-swap hook. Must be called before the daemon
// starts serving (no lock guards the field against a concurrent Swap).
func (ms *ModelSet) OnSwap(fn func(gen uint64)) { ms.onSwap = fn }

// View snapshots the current generation.
func (ms *ModelSet) View() ModelView {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return ModelView{
		Gen:       ms.gen,
		Lib:       ms.lib,
		Pred:      ms.pred,
		Scheduler: ms.scheduler,
		Known:     ms.known,
	}
}

// Generation returns the live generation number.
func (ms *ModelSet) Generation() uint64 {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return ms.gen
}

// Swaps returns how many hot-swaps have been executed.
func (ms *ModelSet) Swaps() uint64 { return ms.swaps.Load() }

// Retrainer produces a fresh library for a hot-swap. recent holds the
// bounded window of production observations per application, newest last;
// implementations typically fold them into the original training profile
// and refit the family.
type Retrainer func(recent map[string][]model.Sample) (*model.Library, error)

// DefaultSampleCap bounds the per-application observation window the swap
// manager hands to the retrainer.
const DefaultSampleCap = 256

// SwapManager wires completion observations to drift detection and model
// hot-swap: every completion's relative runtime prediction error feeds a
// monitor.Detector; when it fires, the retrainer runs (single-flight, off
// the request path unless synchronous) and the resulting library is
// swapped in atomically.
type SwapManager struct {
	ms      *ModelSet
	retrain Retrainer
	// synchronous runs retrains on the observing goroutine — determinism
	// for tests and the load-generator walkthrough.
	synchronous bool

	mu         sync.Mutex
	det        *monitor.Detector
	samples    map[string][]model.Sample
	sampleCap  int
	retraining bool

	wg          sync.WaitGroup
	retrainErrs atomic.Uint64
	driftFires  atomic.Uint64
}

// NewSwapManager builds the drift-to-swap loop. retrain may be nil, in
// which case drift is still detected and counted but no swap happens.
func NewSwapManager(ms *ModelSet, retrain Retrainer, cfg monitor.DriftConfig, synchronous bool) *SwapManager {
	return &SwapManager{
		ms:          ms,
		retrain:     retrain,
		synchronous: synchronous,
		det:         monitor.NewDetector(cfg),
		samples:     map[string][]model.Sample{},
		sampleCap:   DefaultSampleCap,
	}
}

// ObserveCompletion folds one completion report into the drift loop.
// predictedRT is the forecast captured at placement time; obs carries the
// observed outcome; bg is the neighbour's characteristic vector.
func (sm *SwapManager) ObserveCompletion(app string, bg []float64, predictedRT float64, obs Observation) {
	if predictedRT <= 0 || obs.Runtime <= 0 || len(bg) != model.NumFeatures {
		return
	}
	relErr := model.PredictionError(predictedRT, obs.Runtime)

	sm.mu.Lock()
	w := append(sm.samples[app], model.Sample{
		BG:      append([]float64(nil), bg...),
		Runtime: obs.Runtime,
		IOPS:    obs.IOPS,
	})
	if len(w) > sm.sampleCap {
		w = w[len(w)-sm.sampleCap:]
	}
	sm.samples[app] = w
	fired := sm.det.Observe(relErr)
	launch := fired && !sm.retraining && sm.retrain != nil
	if fired {
		sm.driftFires.Add(1)
	}
	var snapshot map[string][]model.Sample
	if launch {
		sm.retraining = true
		snapshot = make(map[string][]model.Sample, len(sm.samples))
		for a, s := range sm.samples {
			snapshot[a] = append([]model.Sample(nil), s...)
		}
	}
	sm.mu.Unlock()

	if !launch {
		return
	}
	if sm.synchronous {
		sm.runRetrain(snapshot)
		return
	}
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		sm.runRetrain(snapshot)
	}()
}

// runRetrain executes one retrain-and-swap cycle.
func (sm *SwapManager) runRetrain(snapshot map[string][]model.Sample) {
	lib, err := sm.retrain(snapshot)
	if err == nil {
		err = sm.ms.Swap(lib)
	}
	if err != nil {
		sm.retrainErrs.Add(1)
	}
	sm.mu.Lock()
	sm.retraining = false
	// A swap (or a failed attempt) starts a fresh error baseline either
	// way: the old reference distribution no longer describes the stream.
	sm.det.Reset()
	sm.mu.Unlock()
}

// TriggerSwap forces a retrain-and-swap now, synchronously — the manual
// path behind POST /v1/models/swap.
func (sm *SwapManager) TriggerSwap() error {
	if sm.retrain == nil {
		return fmt.Errorf("serve: no retrainer configured")
	}
	sm.mu.Lock()
	if sm.retraining {
		sm.mu.Unlock()
		return fmt.Errorf("serve: retrain already in flight")
	}
	sm.retraining = true
	snapshot := make(map[string][]model.Sample, len(sm.samples))
	for a, s := range sm.samples {
		snapshot[a] = append([]model.Sample(nil), s...)
	}
	sm.mu.Unlock()

	lib, err := sm.retrain(snapshot)
	if err == nil {
		err = sm.ms.Swap(lib)
	}
	sm.mu.Lock()
	sm.retraining = false
	sm.det.Reset()
	sm.mu.Unlock()
	if err != nil {
		sm.retrainErrs.Add(1)
	}
	return err
}

// Wait blocks until any in-flight asynchronous retrain has finished —
// part of graceful drain.
func (sm *SwapManager) Wait() { sm.wg.Wait() }

// DriftFires returns how many times the detector has fired.
func (sm *SwapManager) DriftFires() uint64 { return sm.driftFires.Load() }

// RetrainErrors returns how many retrain-and-swap cycles failed.
func (sm *SwapManager) RetrainErrors() uint64 { return sm.retrainErrs.Load() }
