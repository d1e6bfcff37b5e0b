package sim

import (
	"math"
	"strings"
	"testing"

	"tracon/internal/sched"
)

func TestWorkflowChainRunsInOrder(t *testing.T) {
	tb := table(t)
	eng, err := NewEngine(Config{Machines: 4, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []sched.Task{
		{ID: 1, App: "blastn"},
		{ID: 2, App: "freqmine", DependsOn: []int64{1}},
		{ID: 3, App: "dedup", DependsOn: []int64{2}},
	}
	res, err := eng.Run(tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount != 3 {
		t.Fatalf("completed %d of 3", res.CompletedCount)
	}
	finish := map[int64]float64{}
	start := map[int64]float64{}
	for _, r := range res.Completed {
		finish[r.Task.ID] = r.Finish
		start[r.Task.ID] = r.Start
	}
	if !(start[2] >= finish[1] && start[3] >= finish[2]) {
		t.Fatalf("chain order violated: starts %v finishes %v", start, finish)
	}
	// A chain on an otherwise idle cluster never interferes: the makespan
	// is the sum of solo runtimes.
	want := tb.SoloRuntime("blastn") + tb.SoloRuntime("freqmine") + tb.SoloRuntime("dedup")
	if math.Abs(res.LastFinish-want)/want > 0.01 {
		t.Fatalf("makespan %v want ≈%v", res.LastFinish, want)
	}
}

func TestWorkflowDiamondParallelizes(t *testing.T) {
	tb := table(t)
	eng, err := NewEngine(Config{Machines: 4, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	// blastn fans out to two independent stages which join into dedup.
	tasks := []sched.Task{
		{ID: 1, App: "blastn"},
		{ID: 2, App: "freqmine", DependsOn: []int64{1}},
		{ID: 3, App: "compile", DependsOn: []int64{1}},
		{ID: 4, App: "dedup", DependsOn: []int64{2, 3}},
	}
	res, err := eng.Run(tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount != 4 {
		t.Fatalf("completed %d of 4", res.CompletedCount)
	}
	var rec = map[int64]TaskRecord{}
	for _, r := range res.Completed {
		rec[r.Task.ID] = r
	}
	// The middle stages overlap in time (they run on a 4-machine cluster).
	if rec[2].Start >= rec[3].Finish || rec[3].Start >= rec[2].Finish {
		t.Fatalf("fan-out stages did not overlap: %+v %+v", rec[2], rec[3])
	}
	if rec[4].Start < rec[2].Finish-1e-9 || rec[4].Start < rec[3].Finish-1e-9 {
		t.Fatal("join stage started before both parents finished")
	}
}

func TestWorkflowInterferenceAwareSchedulingHelpsPipelines(t *testing.T) {
	// Four two-stage pipelines submitted together: the scheduler decides
	// which stages co-locate. MIBS must not lose to FIFO on total runtime.
	tb := table(t)
	pred := oracle(t)
	mk := func() []sched.Task {
		var tasks []sched.Task
		id := int64(0)
		for p := 0; p < 4; p++ {
			first := id
			tasks = append(tasks, sched.Task{ID: id, App: []string{"video", "blastn", "dedup", "freqmine"}[p]})
			id++
			tasks = append(tasks, sched.Task{ID: id, App: []string{"email", "blastp", "web", "compile"}[p], DependsOn: []int64{first}})
			id++
		}
		return tasks
	}
	run := func(s sched.Scheduler) *Results {
		eng, err := NewEngine(Config{Machines: 2, Scheduler: s, Table: tb})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(mk(), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.CompletedCount != 8 {
			t.Fatalf("%s completed %d of 8", s.Name(), res.CompletedCount)
		}
		return res
	}
	fifo := run(sched.FIFO{})
	mibs := run(&sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: 8})
	if mibs.TotalRuntime > fifo.TotalRuntime*1.02 {
		t.Fatalf("MIBS total runtime %v worse than FIFO %v on pipelines", mibs.TotalRuntime, fifo.TotalRuntime)
	}
}

func TestWorkflowValidation(t *testing.T) {
	tb := table(t)
	run := func(tasks []sched.Task) error {
		eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run(tasks, math.Inf(1))
		return err
	}
	if err := run([]sched.Task{{ID: 1, App: "email", DependsOn: []int64{99}}}); err == nil {
		t.Fatal("unknown dependency accepted")
	}
	if err := run([]sched.Task{{ID: 1, App: "email", DependsOn: []int64{1}}}); err == nil {
		t.Fatal("self-dependency accepted")
	}
	if err := run([]sched.Task{
		{ID: 1, App: "email", DependsOn: []int64{2}},
		{ID: 2, App: "web", DependsOn: []int64{1}},
	}); err == nil {
		t.Fatal("cycle accepted")
	}
	if err := run([]sched.Task{{ID: 1, App: "email"}, {ID: 1, App: "web"}}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	// Without dependencies, only strictly increasing IDs skip the ID map;
	// a repeat must still be caught whether or not the IDs are sorted.
	for _, ids := range [][]int64{{5, 3, 5}, {1, 2, 2}} {
		var tasks []sched.Task
		for _, id := range ids {
			tasks = append(tasks, sched.Task{ID: id, App: "email"})
		}
		if err := run(tasks); err == nil || !strings.Contains(err.Error(), "duplicate task ID") {
			t.Fatalf("IDs %v: err %v, want a duplicate-ID rejection", ids, err)
		}
	}
}

func TestWorkflowDependencyCompletesBeforeArrival(t *testing.T) {
	// The dependent arrives long after its parent has finished; it must
	// run immediately on arrival.
	tb := table(t)
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	late := tb.SoloRuntime("email") + 5000
	tasks := []sched.Task{
		{ID: 1, App: "email"},
		{ID: 2, App: "web", Arrival: late, DependsOn: []int64{1}},
	}
	res, err := eng.Run(tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount != 2 {
		t.Fatalf("completed %d", res.CompletedCount)
	}
	for _, r := range res.Completed {
		if r.Task.ID == 2 && r.Wait() > 60 {
			t.Fatalf("late dependent waited %v after arrival", r.Wait())
		}
	}
}
