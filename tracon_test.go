package tracon

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

var (
	sysOnce sync.Once
	sys     *System
)

func system(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		s, err := New(Config{})
		if err != nil {
			panic(err)
		}
		if err := s.RegisterBenchmarks(); err != nil {
			panic(err)
		}
		sys = s
	})
	return sys
}

func TestConfigDefaults(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Model != NLM || s.cfg.Storage != HDD || s.cfg.MeasurementRuns != 3 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Model: "tree"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := New(Config{Storage: "tape"}); err == nil {
		t.Fatal("unknown storage accepted")
	}
}

func TestRegisterAndPredict(t *testing.T) {
	s := system(t)
	if got := s.Apps(); len(got) != 8 {
		t.Fatalf("Apps = %v", got)
	}
	solo, err := s.SoloRuntime("blastn")
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := s.PredictRuntime("blastn", "video")
	if err != nil {
		t.Fatal(err)
	}
	if heavy <= solo {
		t.Fatalf("prediction under interference (%v) not above solo (%v)", heavy, solo)
	}
	io, err := s.PredictIOPS("blastn", "video")
	if err != nil {
		t.Fatal(err)
	}
	ioSolo, err := s.PredictIOPS("blastn", "")
	if err != nil {
		t.Fatal(err)
	}
	if io >= ioSolo {
		t.Fatalf("IOPS under interference (%v) not below idle (%v)", io, ioSolo)
	}
}

func TestRegisterCustomApp(t *testing.T) {
	s := system(t)
	err := s.RegisterApp(App{
		Name: "custom-etl", CPUSeconds: 100,
		ReadOps: 50000, WriteOps: 20000, ReqSizeKB: 32, Seq: 0.7, IODepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PredictRuntime("custom-etl", "video"); err != nil {
		t.Fatal(err)
	}
}

func TestModelError(t *testing.T) {
	s := system(t)
	mean, stddev, err := s.ModelError("blastn", MinRuntime)
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 || mean > 0.5 || stddev < 0 {
		t.Fatalf("NLM blastn error %v ± %v out of expected range", mean, stddev)
	}
	if _, _, err := s.ModelError("blastn", "latency"); err == nil {
		t.Fatal("ModelError accepted an unknown objective")
	}
}

func TestRunStaticSpeedup(t *testing.T) {
	s := system(t)
	fifo, err := s.RunStatic(Policy{Name: "fifo"}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	mibs, err := s.RunStatic(Policy{Name: "mibs"}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Completed != 16 || mibs.Completed != 16 {
		t.Fatalf("completed %d / %d", fifo.Completed, mibs.Completed)
	}
	if sp := Speedup(fifo, mibs); sp < 0.95 {
		t.Fatalf("MIBS speedup %v collapsed", sp)
	}
}

func TestRunStaticExplicitApps(t *testing.T) {
	s := system(t)
	rep, err := s.RunStatic(Policy{Name: "mios"}, 2, []string{"video", "email", "dedup", "blastp"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 {
		t.Fatalf("completed %d of 4", rep.Completed)
	}
}

func TestRunDynamic(t *testing.T) {
	s := system(t)
	fifo, err := s.RunDynamic(Policy{Name: "fifo"}, 8, 2, 2, Medium)
	if err != nil {
		t.Fatal(err)
	}
	mibs, err := s.RunDynamic(Policy{Name: "mibs", QueueLen: 8}, 8, 2, 2, Medium)
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Completed == 0 || mibs.Completed == 0 {
		t.Fatal("nothing completed")
	}
	nt := NormalizedThroughput(fifo, mibs)
	if nt < 0.8 || math.IsNaN(nt) {
		t.Fatalf("normalized throughput %v", nt)
	}
	if _, err := s.RunDynamic(Policy{Name: "fifo"}, 0, 1, 1, Medium); err == nil {
		t.Fatal("bad args accepted")
	}
}

func TestObserveAdaptation(t *testing.T) {
	s := system(t)
	// Feed co-run observations; none should error, and the call is the
	// complete monitor → adaptation pipeline.
	for i := 0; i < 5; i++ {
		if _, err := s.Observe("blastn", "video"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Observe("blastn", "nope"); err == nil {
		t.Fatal("unknown background accepted")
	}
}

func TestRatioHelpers(t *testing.T) {
	fifo := Report{TotalRuntime: 200, TotalIOPS: 100, Completed: 50}
	pol := Report{TotalRuntime: 100, TotalIOPS: 150, Completed: 60}
	if Speedup(fifo, pol) != 2 {
		t.Fatal("Speedup wrong")
	}
	if IOBoost(fifo, pol) != 1.5 {
		t.Fatal("IOBoost wrong")
	}
	if NormalizedThroughput(fifo, pol) != 1.2 {
		t.Fatal("NormalizedThroughput wrong")
	}
	if Speedup(fifo, Report{}) != 0 || IOBoost(Report{}, pol) != 0 || NormalizedThroughput(Report{}, pol) != 0 {
		t.Fatal("zero guards missing")
	}
}

func TestRunWorkflowValidation(t *testing.T) {
	s := system(t)
	if _, _, err := s.RunWorkflow(Policy{Name: "fifo"}, 0, nil); err == nil {
		t.Fatal("zero machines accepted")
	}
	if _, _, err := s.RunWorkflow(Policy{Name: "fifo"}, 2, nil); err == nil {
		t.Fatal("empty workflow accepted")
	}
	dup := []WorkflowTask{{Name: "a", App: "email"}, {Name: "a", App: "web"}}
	if _, _, err := s.RunWorkflow(Policy{Name: "fifo"}, 2, dup); err == nil {
		t.Fatal("duplicate stage accepted")
	}
	bad := []WorkflowTask{{Name: "a", App: "email", After: []string{"ghost"}}}
	if _, _, err := s.RunWorkflow(Policy{Name: "fifo"}, 2, bad); err == nil {
		t.Fatal("unknown dependency accepted")
	}
}

func TestRunWorkflowChain(t *testing.T) {
	s := system(t)
	stages := []WorkflowTask{
		{Name: "search", App: "blastn"},
		{Name: "mine", App: "freqmine", After: []string{"search"}},
	}
	rep, span, err := s.RunWorkflow(Policy{Name: "mibs"}, 2, stages)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 {
		t.Fatalf("completed %d of 2", rep.Completed)
	}
	soloA, _ := s.SoloRuntime("blastn")
	soloB, _ := s.SoloRuntime("freqmine")
	want := soloA + soloB
	if math.Abs(span-want)/want > 0.05 {
		t.Fatalf("chain makespan %v want ≈%v", span, want)
	}
}

func TestForestModelKind(t *testing.T) {
	s, err := New(Config{Model: ForestKind, Noise: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// Register a subset cheaply via custom app to keep the test fast.
	if err := s.RegisterApp(App{
		Name: "etl", CPUSeconds: 100, ReadOps: 60000, WriteOps: 10000,
		ReqSizeKB: 32, Seq: 0.8, IODepth: 2,
	}); err != nil {
		t.Fatal(err)
	}
	solo, err := s.PredictRuntime("etl", "")
	if err != nil {
		t.Fatal(err)
	}
	if solo <= 0 {
		t.Fatalf("forest solo prediction %v", solo)
	}
	mean, _, err := s.ModelError("etl", MinRuntime)
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 || mean > 0.6 {
		t.Fatalf("forest CV error %v out of range", mean)
	}
}

func TestAdaptationStatsUnknownApp(t *testing.T) {
	s := system(t)
	if _, _, _, err := s.AdaptationStats("nope", 10); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestSaveLoadModelThroughFacade(t *testing.T) {
	s := system(t)
	var buf bytes.Buffer
	if err := s.SaveModel("blastn", &buf); err != nil {
		t.Fatal(err)
	}
	before, err := s.PredictRuntime("blastn", "video")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	after, err := s.PredictRuntime("blastn", "video")
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("round-tripped model predicts %v, was %v", after, before)
	}
	if err := s.SaveModel("nope", &buf); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := s.LoadModel(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk accepted")
	}
}
