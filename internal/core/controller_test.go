package core

import (
	"sync"
	"testing"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

// paperConfig returns the paper's deployment: NLM models on the
// calibrated HDD testbed, three averaged runs per measurement.
func paperConfig() Config {
	return Config{
		Host:             xen.DefaultHost(),
		MeasurementRuns:  3,
		MeasurementNoise: 0.05,
		Seed:             1,
		Kind:             model.NLM,
		Adaptive:         model.DefaultAdaptive(),
	}
}

var (
	ctrlOnce sync.Once
	ctrl     *Controller
)

// fixture registers all eight benchmarks once (the expensive bring-up).
func fixture(t *testing.T) *Controller {
	t.Helper()
	ctrlOnce.Do(func() {
		c, err := New(paperConfig())
		if err != nil {
			panic(err)
		}
		if err := c.RegisterBenchmarks(); err != nil {
			panic(err)
		}
		ctrl = c
	})
	return ctrl
}

func TestRegisterBenchmarks(t *testing.T) {
	c := fixture(t)
	if got := c.Apps(); len(got) != 8 {
		t.Fatalf("Apps = %v", got)
	}
	if _, err := c.Spec("blastn"); err != nil {
		t.Fatal(err)
	}
	ts, err := c.TrainingSet("video")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Samples) < 125 {
		t.Fatalf("training set has %d samples", len(ts.Samples))
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	c := fixture(t)
	b, _ := workload.BenchmarkByName("blastn")
	if err := c.Register(b.Spec); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := c.Register(xen.AppSpec{Name: "bad", ReqSizeKB: -1}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestLibraryServesPredictions(t *testing.T) {
	c := fixture(t)
	rt, err := c.Library().PredictRuntime("blastn", "video")
	if err != nil {
		t.Fatal(err)
	}
	solo, err := c.Library().SoloRuntime("blastn")
	if err != nil {
		t.Fatal(err)
	}
	if rt <= solo {
		t.Fatalf("co-located prediction %v not above solo %v", rt, solo)
	}
}

func TestNewSchedulerPolicies(t *testing.T) {
	c := fixture(t)
	cases := []struct {
		spec SchedulerSpec
		name string
	}{
		{SchedulerSpec{Policy: "fifo"}, "FIFO"},
		{SchedulerSpec{Policy: "mios", Objective: sched.MinRuntime}, "MIOSRT"},
		{SchedulerSpec{Policy: "mibs", QueueLen: 8, Objective: sched.MinRuntime}, "MIBS8-RT"},
		{SchedulerSpec{Policy: "mix", QueueLen: 4, Objective: sched.MaxIOPS}, "MIX4-IO"},
	}
	for _, cse := range cases {
		s, err := c.NewScheduler(cse.spec)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != cse.name {
			t.Fatalf("Name = %q want %q", s.Name(), cse.name)
		}
	}
	if _, err := c.NewScheduler(SchedulerSpec{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSimulateStaticBatch(t *testing.T) {
	c := fixture(t)
	mix := workload.NewMixer(11)
	batch := mix.Batch(workload.MediumIO, 8)
	tasks := make([]sched.Task, len(batch))
	for i, spec := range batch {
		tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(spec.Name)}
	}
	res, err := c.Simulate(SchedulerSpec{Policy: "mibs", QueueLen: 8, Objective: sched.MinRuntime}, 4, tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount != 8 {
		t.Fatalf("completed %d of 8", res.CompletedCount)
	}
}

func TestObserveFeedsAdaptation(t *testing.T) {
	c := fixture(t)
	ts, err := c.TrainingSet("blastn")
	if err != nil {
		t.Fatal(err)
	}
	rebuilds := 0
	// Push two full passes of observations; periodic retraining must fire.
	for round := 0; round < 2; round++ {
		for _, s := range ts.Samples {
			r, err := c.Observe("blastn", s)
			if err != nil {
				t.Fatal(err)
			}
			if r {
				rebuilds++
			}
		}
	}
	if rebuilds == 0 {
		t.Fatal("no rebuild over 250 observations (retrain-every is 160)")
	}
	ad, err := c.Adaptive("blastn")
	if err != nil {
		t.Fatal(err)
	}
	if ad.RecentError(50) > 0.5 {
		t.Fatalf("adaptive error drifted: %v", ad.RecentError(50))
	}
	if _, err := c.Observe("nope", model.Sample{}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestOracleSchedulerWorks(t *testing.T) {
	c := fixture(t)
	s, err := c.NewScheduler(SchedulerSpec{Policy: "mios", Objective: sched.MinRuntime, UseOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := s.Schedule([]sched.Task{{ID: 1, App: "video"}}, sched.Counts{"video": 1, "blastp": 1}, sched.Load{TotalSlots: 8, Queued: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].Category != "blastp" {
		t.Fatalf("oracle MIOS placed video at %+v, want beside blastp", pl)
	}
}

func TestControllerRequiresAppsForTable(t *testing.T) {
	c, err := New(paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InterferenceTable(); err == nil {
		t.Fatal("table built with no applications")
	}
}
