package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"tracon/internal/fault"
	"tracon/internal/sched"
)

// recObserver records fault transitions (and a printable event log) for
// assertions; it ignores every other event.
type recObserver struct {
	faults []FaultInfo
	log    []string
}

func (r *recObserver) Observe(_ View, ev Event) error {
	switch ev.Kind {
	case OnPlace:
		r.log = append(r.log, fmt.Sprintf("place t=%.6f task=%d m=%d s=%d", ev.Now, ev.Place.Task.ID, ev.Place.Machine, ev.Place.Slot))
	case OnComplete:
		r.log = append(r.log, fmt.Sprintf("complete t=%.6f task=%d", ev.Now, ev.Complete.Record.Task.ID))
	case OnFault:
		r.faults = append(r.faults, ev.Fault)
		r.log = append(r.log, fmt.Sprintf("fault t=%.6f %+v", ev.Now, ev.Fault))
	}
	return nil
}

// TestChaosCrashRecoveryCompletesAllTasks is the acceptance scenario: crash
// 1 of N machines mid-run; every task must still complete via re-placement
// and retry.
func TestChaosCrashRecoveryCompletesAllTasks(t *testing.T) {
	tb := table(t)
	s := tb.SoloRuntime("blastn")
	tasks := taskList("blastn", "video", "freqmine", "blastn", "video", "freqmine", "blastn", "video", "freqmine", "blastn", "video", "freqmine")
	plan := &fault.Plan{
		Crashes: []fault.Crash{{Machine: 1, DownAt: 0.2 * s, UpAt: 0.5 * s}},
		Retry:   fault.RetryPolicy{MaxAttempts: 5, Backoff: 0.01 * s, BackoffFactor: 1},
	}
	tr := &recObserver{}
	eng, err := NewEngine(Config{Machines: 4, Scheduler: sched.FIFO{}, Table: tb, Faults: plan, Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount != len(tasks) || res.Lost != 0 {
		t.Fatalf("completed %d of %d (lost %d)", res.CompletedCount, len(tasks), res.Lost)
	}
	if res.MachineDowns != 1 || res.MachineUps != 1 {
		t.Fatalf("machine transitions: %d down, %d up", res.MachineDowns, res.MachineUps)
	}
	// Machine 1 had both VMs busy when it crashed (FIFO fills all 8 slots
	// with the first 8 tasks), so exactly two attempts were evicted.
	if res.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", res.Evictions)
	}
	if res.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2", res.Retries)
	}
	// Recovery must be visible in the trace in order: down, evictions,
	// retries, up.
	var kinds []string
	for _, f := range tr.faults {
		kinds = append(kinds, f.Kind)
	}
	want := []string{FaultMachineDown, FaultEvict, FaultRetry, FaultEvict, FaultRetry, FaultMachineUp}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("fault sequence = %v, want %v", kinds, want)
	}
}

// TestChaosDeterministicRepeatRuns: the same fault-injected configuration
// must reproduce identical results and identical event logs.
func TestChaosDeterministicRepeatRuns(t *testing.T) {
	tb := table(t)
	s := tb.SoloRuntime("blastn")
	plan := &fault.Plan{
		Seed:        42,
		FailProb:    0.2,
		TaskTimeout: 3 * s,
		Crashes: []fault.Crash{
			{Machine: 0, DownAt: 0.3 * s, UpAt: 0.7 * s},
			{Machine: 2, DownAt: 0.5 * s},
		},
		Slowdowns: []fault.Slowdown{{Machine: 1, Slot: 0, From: 0.1 * s, To: 0.4 * s, Factor: 0.25}},
		Retry:     fault.RetryPolicy{MaxAttempts: 4, Backoff: 0.05 * s},
	}
	run := func() (*Results, []string) {
		tr := &recObserver{}
		eng, err := NewEngine(Config{Machines: 3, Scheduler: sched.FIFO{}, Table: tb, Faults: plan, Observer: tr})
		if err != nil {
			t.Fatal(err)
		}
		tasks := taskList("video", "freqmine", "blastn", "video", "freqmine", "blastn", "video", "freqmine")
		res, err := eng.Run(tasks, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.log
	}
	res1, log1 := run()
	res2, log2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("results differ between identical runs:\n%+v\n%+v", res1, res2)
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Fatal("event logs differ between identical runs")
	}
	// The plan must actually have injected something.
	if res1.Evictions == 0 && res1.FailedAttempts == 0 && res1.Timeouts == 0 {
		t.Fatal("plan injected no faults; the test asserts nothing")
	}
}

// TestTimeoutRacingCompletion: a timeout landing at the exact instant the
// attempt would complete wins deterministically (it carries the earlier
// sequence number), every time — so a timeout equal to the solo runtime
// exhausts the attempt budget.
func TestTimeoutRacingCompletion(t *testing.T) {
	tb := table(t)
	s := tb.SoloRuntime("blastn")

	run := func(timeout float64) *Results {
		plan := &fault.Plan{TaskTimeout: timeout, Retry: fault.RetryPolicy{MaxAttempts: 3, Backoff: 1}}
		eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(taskList("blastn"), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Deadline exactly at the completion instant: the timeout wins the tie
	// on every attempt and the task is lost after three timeouts.
	res := run(s)
	if res.Timeouts != 3 || res.Lost != 1 || res.CompletedCount != 0 {
		t.Fatalf("tie race: timeouts=%d lost=%d completed=%d, want 3/1/0",
			res.Timeouts, res.Lost, res.CompletedCount)
	}
	// A deadline just past the completion instant never fires.
	res = run(s * 1.0001)
	if res.Timeouts != 0 || res.CompletedCount != 1 {
		t.Fatalf("loose deadline: timeouts=%d completed=%d, want 0/1", res.Timeouts, res.CompletedCount)
	}
}

// TestRetryAfterDoubleCrash: a task whose machine crashes twice is evicted
// twice and completes on its third attempt.
func TestRetryAfterDoubleCrash(t *testing.T) {
	tb := table(t)
	s := tb.SoloRuntime("blastn")
	plan := &fault.Plan{
		Crashes: []fault.Crash{
			{Machine: 0, DownAt: 0.2 * s, UpAt: 0.3 * s},
			{Machine: 0, DownAt: 0.5 * s, UpAt: 0.6 * s},
		},
		Retry: fault.RetryPolicy{MaxAttempts: 3, Backoff: 0.01 * s, BackoffFactor: 1},
	}
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList("blastn"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions != 2 || res.Retries != 2 || res.Lost != 0 || res.CompletedCount != 1 {
		t.Fatalf("evictions=%d retries=%d lost=%d completed=%d, want 2/2/0/1",
			res.Evictions, res.Retries, res.Lost, res.CompletedCount)
	}
	// The third attempt starts at the second recovery and runs solo.
	rec := res.Completed[0]
	if math.Abs(rec.Start-0.6*s) > 1e-6*s {
		t.Fatalf("final attempt started at %v, want %v", rec.Start, 0.6*s)
	}
	if math.Abs(rec.Runtime()-s)/s > 1e-6 {
		t.Fatalf("final attempt runtime %v, want solo %v", rec.Runtime(), s)
	}
}

// TestBackoffCappingObserved: retry delays follow backoff · factor^(n−1)
// capped at MaxBackoff, as reported through the trace.
func TestBackoffCappingObserved(t *testing.T) {
	tb := table(t)
	plan := &fault.Plan{
		FailProb: 1, // every attempt fails
		Retry:    fault.RetryPolicy{MaxAttempts: 4, Backoff: 3, BackoffFactor: 2, MaxBackoff: 4},
	}
	tr := &recObserver{}
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb, Faults: plan, Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList("blastn"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedAttempts != 4 || res.Retries != 3 || res.Lost != 1 || res.CompletedCount != 0 {
		t.Fatalf("failed=%d retries=%d lost=%d completed=%d, want 4/3/1/0",
			res.FailedAttempts, res.Retries, res.Lost, res.CompletedCount)
	}
	var delays []float64
	for _, f := range tr.faults {
		if f.Kind == FaultRetry {
			delays = append(delays, f.Delay)
		}
	}
	if !reflect.DeepEqual(delays, []float64{3, 4, 4}) {
		t.Fatalf("retry delays = %v, want [3 4 4]", delays)
	}
}

// TestSlowdownStallDelaysCompletion: a full-stall window pauses progress
// for exactly its length, and the horizon is not dragged to a pseudo-time
// by an unschedulable stalled completion.
func TestSlowdownStallDelaysCompletion(t *testing.T) {
	tb := table(t)
	s := tb.SoloRuntime("blastn")
	plan := &fault.Plan{
		Slowdowns: []fault.Slowdown{{Machine: 0, Slot: 0, From: 0.1 * s, To: 0.3 * s, Factor: 0}},
	}
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList("blastn"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount != 1 {
		t.Fatalf("completed %d", res.CompletedCount)
	}
	want := 1.2 * s // solo work plus the 0.2·s stall
	if got := res.Completed[0].Runtime(); math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("runtime %v, want %v", got, want)
	}
	if res.Horizon > 2*s {
		t.Fatalf("horizon %v dragged far past completion %v", res.Horizon, want)
	}
}

// TestEmptyPlanZeroPerturbation: a non-nil plan that injects nothing must
// leave the run byte-identical to a fault-free one.
func TestEmptyPlanZeroPerturbation(t *testing.T) {
	tb := table(t)
	tasks := taskList("video", "freqmine", "blastn", "video", "freqmine", "blastn", "video", "freqmine")
	run := func(plan *fault.Plan) (*Results, []string) {
		tr := &recObserver{}
		eng, err := NewEngine(Config{Machines: 3, Scheduler: sched.FIFO{}, Table: tb, Faults: plan, Observer: tr})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(tasks, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.log
	}
	base, baseLog := run(nil)
	empty, emptyLog := run(&fault.Plan{})
	if !reflect.DeepEqual(base, empty) {
		t.Fatalf("empty plan perturbed results:\n%+v\n%+v", base, empty)
	}
	if !reflect.DeepEqual(baseLog, emptyLog) {
		t.Fatal("empty plan perturbed the event log")
	}
}

// TestFaultPlanValidatedAtEngineBuild: NewEngine rejects plans that target
// machines outside the cluster.
func TestFaultPlanValidatedAtEngineBuild(t *testing.T) {
	tb := table(t)
	plan := &fault.Plan{Crashes: []fault.Crash{{Machine: 9, DownAt: 1}}}
	if _, err := NewEngine(Config{Machines: 2, Scheduler: sched.FIFO{}, Table: tb, Faults: plan}); err == nil {
		t.Fatal("out-of-range crash accepted")
	}
}
