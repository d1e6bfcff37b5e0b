package sim

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"tracon/internal/fault"
	"tracon/internal/sched"
	"tracon/internal/workload"
)

// shuffleKeepingTies permutes tasks at random except that tasks with equal
// Arrival keep their relative order: Run's contract is (Arrival, input
// index) order, so this is the shuffle that must not change a run.
func shuffleKeepingTies(tasks []sched.Task, seed int64) []sched.Task {
	out := make([]sched.Task, len(tasks))
	perm := rand.New(rand.NewSource(seed)).Perm(len(tasks))
	slots := map[float64][]int{} // arrival instant → positions its tasks land on, ascending
	for pos := range out {
		at := tasks[perm[pos]].Arrival
		slots[at] = append(slots[at], pos)
	}
	for _, t := range tasks {
		out[slots[t.Arrival][0]] = t
		slots[t.Arrival] = slots[t.Arrival][1:]
	}
	return out
}

// TestRunArrivalOrderIndependent pins the arrival cursor's ordering: a run
// over a shuffled copy of a time-ordered stream — with bursts of equal
// arrival times, and crash, recovery and slowdown boundaries landing on
// arrival instants — produces Results deep-equal to the run over the
// ordered stream, per-task records included, and leaves the caller's
// slice untouched. Every task must also complete or be lost: a retried
// task left unplaced in a batch must stay in the backlog.
func TestRunArrivalOrderIndependent(t *testing.T) {
	pred := oracle(t)
	tasks := genTasks(3, 240, 15)
	for i := range tasks {
		tasks[i].Arrival = tasks[i-i%5].Arrival // bursts of five same-instant arrivals
	}
	plan := func() *fault.Plan {
		return &fault.Plan{
			Seed:      5,
			FailProb:  0.05,
			Crashes:   []fault.Crash{{Machine: 1, DownAt: tasks[21].Arrival, UpAt: tasks[63].Arrival}},
			Slowdowns: []fault.Slowdown{{Machine: 2, Slot: 0, From: tasks[35].Arrival, To: tasks[98].Arrival, Factor: 0.5}},
			Retry:     fault.RetryPolicy{MaxAttempts: 4, Backoff: 5},
		}
	}
	shuffled := shuffleKeepingTies(tasks, 11)
	if reflect.DeepEqual(shuffled, tasks) {
		t.Fatal("shuffle left the stream in order")
	}
	given := append([]sched.Task(nil), shuffled...)
	for _, c := range []struct {
		name  string
		sched func() sched.Scheduler
	}{
		{"fifo", func() sched.Scheduler { return sched.FIFO{} }},
		{"mibs8", func() sched.Scheduler {
			return &sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: 8}
		}},
	} {
		run := func(in []sched.Task) *Results {
			eng, err := NewEngine(Config{Machines: 6, Scheduler: c.sched(), Table: table(t), Faults: plan()})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(in, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ordered, mixed := run(tasks), run(shuffled)
		if ordered.Retries == 0 || ordered.Evictions == 0 {
			t.Fatalf("%s: the fault plan exercised no retry (%d) or eviction (%d)", c.name, ordered.Retries, ordered.Evictions)
		}
		if n := ordered.CompletedCount + ordered.Lost; n != len(tasks) {
			t.Fatalf("%s: %d tasks completed or lost of %d submitted", c.name, n, len(tasks))
		}
		if !reflect.DeepEqual(ordered, mixed) {
			t.Errorf("%s: shuffled arrivals changed the run\nordered:  %+v\nshuffled: %+v",
				c.name, summary(ordered), summary(mixed))
		}
		if !reflect.DeepEqual(shuffled, given) {
			t.Fatalf("%s: Run modified the caller's arrival slice", c.name)
		}
	}
}

// TestArrivalWinsSameInstantTie pins the tie-break between the arrival
// cursor and the event heap: an arrival due at the very instant its only
// machine crashes is placed first and then evicted, as when arrivals held
// the heap's lowest sequence numbers.
func TestArrivalWinsSameInstantTie(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Machine: 0, DownAt: 10, UpAt: 20}}}
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: table(t), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]sched.Task{{ID: 1, App: "email", Arrival: 10}}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions != 1 || res.CompletedCount != 1 {
		t.Fatalf("evictions %d, completed %d; want the arrival placed before the crash (1, 1)", res.Evictions, res.CompletedCount)
	}
}

// tablePredictor predicts from the interference table itself: exact and
// allocation-free, so an allocation count measures the engine and the
// scheduler rather than a model.
type tablePredictor struct{ tb *InterferenceTable }

func (p tablePredictor) PredictRuntime(target, co string) (float64, error) {
	return p.tb.SoloRuntime(target) / p.tb.Rate(target, co), nil
}
func (p tablePredictor) PredictIOPS(target, co string) (float64, error) {
	return p.tb.IOPS(target, co), nil
}
func (p tablePredictor) SoloRuntime(target string) (float64, error) {
	return p.tb.SoloRuntime(target), nil
}
func (p tablePredictor) SoloIOPS(target string) (float64, error) { return p.tb.SoloIOPS(target), nil }
func (p tablePredictor) Apps() []string                          { return p.tb.Apps() }

// maxAllocsPerTask is the ceiling on heap allocations per task of the
// simulator on the Fig 11 cluster (MIBS8, 1 024 machines, 1 000 tasks per
// simulated minute). It measured 0.24 once the engine reused one counts map
// across scheduling passes, and 0.57 while FreePool.Counts built a fresh
// map per pass; the schedulers' per-pass maps and sorts cost 1.93, and an
// engine that boxes every arrival into its event heap and copies each task
// into the backlog needs 4.56.
const maxAllocsPerTask = 0.3

// maxAllocsPerCompleted is the same count divided by completed tasks,
// about 1.25 times the 3.13 measured. On the slice only about one arrival
// in thirteen completes, so the per-arrival ceiling above would let a cost
// paid per placement or completion grow severalfold before it tripped.
const maxAllocsPerCompleted = 3.9

// fig11Hours is the simulated span of the Fig 11 slice the allocation
// gate and BenchmarkEngineRun run: 0.48 h, about 28 800 tasks.
const fig11Hours = 0.48

// fig11Slice returns an idle engine of the Fig 11 cluster (MIBS8 over a
// table-backed predictor, 1 024 machines) and fig11Hours of its arrivals at
// 1 000 tasks per simulated minute.
func fig11Slice(tb testing.TB) (*Engine, []sched.Task) {
	rng := rand.New(rand.NewSource(1))
	times := workload.Arrivals(rng, 1000, fig11Hours*3600)
	mix := workload.NewMixer(2)
	tasks := make([]sched.Task, len(times))
	for i, tm := range times {
		tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(mix.Draw(workload.MediumIO).Spec.Name), Arrival: tm}
	}
	eng, err := NewEngine(Config{
		Machines:    1024,
		Scheduler:   &sched.MIBS{Scorer: sched.NewScorer(tablePredictor{table(tb)}, sched.MinRuntime), QueueLen: 8},
		Table:       table(tb),
		DropRecords: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, tasks
}

// TestRunAllocsPerTask holds the simulator's allocation rate on the Fig 11
// slice, allocations counted around Run alone.
func TestRunAllocsPerTask(t *testing.T) {
	eng, tasks := fig11Slice(t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := eng.Run(tasks, fig11Hours*3600)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount == 0 {
		t.Fatal("nothing completed")
	}
	allocs := float64(m1.Mallocs - m0.Mallocs)
	perTask := allocs / float64(len(tasks))
	perDone := allocs / float64(res.CompletedCount)
	t.Logf("%d tasks, %.3f allocs per task; %d completed, %.3f allocs per completed task",
		len(tasks), perTask, res.CompletedCount, perDone)
	if perTask > maxAllocsPerTask {
		t.Errorf("%.2f allocations per task, ceiling %.2f", perTask, maxAllocsPerTask)
	}
	if perDone > maxAllocsPerCompleted {
		t.Errorf("%.2f allocations per completed task, ceiling %.2f", perDone, maxAllocsPerCompleted)
	}
}

// BenchmarkEngineRun times one Run of the Fig 11 slice that
// TestRunAllocsPerTask counts allocations over.
func BenchmarkEngineRun(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		eng, tasks := fig11Slice(b)
		b.StartTimer()
		if _, err := eng.Run(tasks, fig11Hours*3600); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEventSize holds the event heap's element at 32 bytes: the heap moves
// events on every push and pop, and an event that embedded a task was
// 104 bytes.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 32 {
		t.Fatalf("event is %d bytes, limit 32", n)
	}
}
