package sim

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"tracon/internal/sched"
	"tracon/internal/workload"
)

// genTasks draws a Poisson-ish arrival stream over the benchmark mix,
// deterministically for the seed.
func genTasks(seed int64, n int, spacing float64) []sched.Task {
	mix := workload.NewMixer(seed)
	batch := mix.Batch(workload.MediumIO, n)
	tasks := make([]sched.Task, n)
	tm := 0.0
	for i, spec := range batch {
		// Deterministic irregular spacing, including bursts of simultaneous
		// arrivals every 7th task — the case that stresses flush collapsing.
		if i%7 != 0 {
			tm += spacing * float64(1+(i*2654435761)%5)
		}
		tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(spec.Name), Arrival: tm}
	}
	return tasks
}

// heapWatcher is a minimal Observer recording the event-heap high-water
// mark.
type heapWatcher struct{ max *int }

func (w heapWatcher) Observe(v View, ev *Event) error {
	if n := v.EventHeapLen(); ev.Kind == OnStep && n > *w.max {
		*w.max = n
	}
	return nil
}

// TestFlushKeepsEventHeapBounded: the engine keeps one flush armed, not one
// per enqueued task, so its event heap stays bounded by the tasks and the
// slots' completions. (That one armed flush schedules exactly as one flush
// per task does is TestEngineMatchesReference's to show: its reference
// arms one per task.)
func TestFlushKeepsEventHeapBounded(t *testing.T) {
	pred := oracle(t)
	seeds := []int64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		tasks := genTasks(seed, 300, 15)
		cases := []struct {
			name    string
			sched   sched.Scheduler
			horizon float64
		}{
			{"fifo", sched.FIFO{}, math.Inf(1)},
			{"mibs8", &sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: 8}, math.Inf(1)},
			{"mibs8-horizon", &sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: 8}, 4000},
		}
		for _, c := range cases {
			maxHeap := 0
			eng, err := NewEngine(Config{Machines: 6, Scheduler: c.sched, Table: table(t), FlushTimeout: 25,
				Observer: heapWatcher{max: &maxHeap}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(tasks, c.horizon); err != nil {
				t.Fatal(err)
			}
			// 300 tasks → one flush per task would hold up to 300 flush
			// events; the engine keeps at most one armed alongside arrivals
			// and completions.
			if maxHeap > len(tasks)+2*6*sched.SlotsPerMachine+2 {
				t.Errorf("seed %d %s: event heap high-water %d suggests flush bloat", seed, c.name, maxHeap)
			}
		}
	}
}

func summary(r *Results) map[string]float64 {
	return map[string]float64{
		"completed": float64(r.CompletedCount),
		"runtime":   r.TotalRuntime,
		"wait":      r.TotalWait,
		"energy":    r.EnergyJ,
		"horizon":   r.Horizon,
	}
}

// TestObserverDoesNotPerturbRun: attaching observers must leave Results
// bit-identical to an unobserved run.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	pred := oracle(t)
	tasks := genTasks(9, 120, 20)
	run := func(obs Observer) *Results {
		s := &sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: 4}
		eng, err := NewEngine(Config{Machines: 4, Scheduler: s, Table: table(t), Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(tasks, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	max := 0
	plain := run(nil)
	observed := run(heapWatcher{max: &max})
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observer perturbed the run: %+v vs %+v", summary(plain), summary(observed))
	}
	if max == 0 {
		t.Fatal("observer never fired")
	}
}

// observeFunc adapts a function to Observer.
type observeFunc func(View, *Event) error

func (f observeFunc) Observe(v View, ev *Event) error { return f(v, ev) }

// TestObserverErrorAbortsRun: the observer's first error ends the run. Run
// returns it wrapped as "sim: observer: …" with no Results, the observer
// hears nothing after it, and the engine processes no later event (its
// clock stays at the failing event's time).
func TestObserverErrorAbortsRun(t *testing.T) {
	pred := oracle(t)
	tasks := genTasks(9, 120, 20)
	boom := errors.New("boom")
	for _, failOn := range []Hook{OnArrival, OnEnqueue, OnDecision, OnPop, OnPlace, OnSegment, OnComplete, OnStep, OnDone} {
		failed, after, failedAt := false, 0, 0.0
		o := observeFunc(func(v View, ev *Event) error {
			switch {
			case failed:
				after++
			case ev.Kind == failOn && ev.Now > 100:
				failed, failedAt = true, ev.Now
				return boom
			}
			return nil
		})
		s := &sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: 4}
		eng, err := NewEngine(Config{Machines: 4, Scheduler: s, Table: table(t), Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(tasks, math.Inf(1))
		if !failed {
			t.Fatalf("hook %d never fired after t=100", failOn)
		}
		if res != nil || !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "sim: observer: ") {
			t.Errorf("hook %d: Run returned (%v, %v), want (nil, sim: observer: boom)", failOn, res, err)
		}
		if after != 0 {
			t.Errorf("hook %d: observer heard %d events after its error", failOn, after)
		}
		if eng.now != failedAt {
			t.Errorf("hook %d: engine clock at %v after an error at %v: a later event was processed", failOn, eng.now, failedAt)
		}
	}
}

// TestFlushStillPreventsStarvation: the suppression must preserve the
// original guarantee that a partial batch cannot starve — including after
// the armed flush is spent and the backlog refills from releases.
func TestFlushStillPreventsStarvation(t *testing.T) {
	pred := oracle(t)
	s := &sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: 8}
	eng, err := NewEngine(Config{Machines: 2, Scheduler: s, Table: table(t), FlushTimeout: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Two trickling arrivals far apart: each must flush on its own timeout.
	tasks := []sched.Task{
		{ID: 0, App: "email", Arrival: 0},
		{ID: 1, App: "email", Arrival: 5000},
	}
	res, err := eng.Run(tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount != 2 {
		t.Fatalf("completed %d of 2: starvation", res.CompletedCount)
	}
	for _, r := range res.Completed {
		if w := r.Wait(); w < 10-1e-9 || w > 60 {
			t.Fatalf("task %d wait %v, expected ≈ flush timeout", r.Task.ID, w)
		}
	}
}
