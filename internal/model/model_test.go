package model

import (
	"math"
	"sync"
	"testing"

	"tracon/internal/workload"
	"tracon/internal/xen"
)

// Shared profiling fixture: measuring 125 backgrounds is the expensive part
// of every model test, so it is done once per target app.
var (
	fixtureOnce sync.Once
	fixtureTS   map[string]*TrainingSet
	fixtureTB   *xen.Testbed
)

// Kinds returns the three families of Fig 3/4 in presentation order.
func Kinds() []Kind { return []Kind{WMM, LM, NLM} }

func fixture(t *testing.T) (map[string]*TrainingSet, *xen.Testbed) {
	t.Helper()
	fixtureOnce.Do(func() {
		host, err := xen.NewHost(xen.DefaultHost())
		if err != nil {
			panic(err)
		}
		fixtureTB = xen.NewTestbed(host, 3, 0.05, 1)
		prof := &Profiler{TB: fixtureTB}
		var bgs []xen.AppSpec
		for _, w := range workload.ProfilingWorkloads(host.Config().Disk) {
			bgs = append(bgs, w.Spec)
		}
		fixtureTS = map[string]*TrainingSet{}
		for _, name := range []string{"blastn", "blastp", "video"} {
			b, err := workload.BenchmarkByName(name)
			if err != nil {
				panic(err)
			}
			ts, err := prof.Profile(b.Spec, bgs)
			if err != nil {
				panic(err)
			}
			fixtureTS[name] = ts
		}
	})
	return fixtureTS, fixtureTB
}

func TestProfileShape(t *testing.T) {
	tss, _ := fixture(t)
	ts := tss["blastn"]
	if len(ts.Samples) != 125+soloReplicas {
		t.Fatalf("profile has %d samples, want %d", len(ts.Samples), 125+soloReplicas)
	}
	if len(ts.Features) != NumFeatures {
		t.Fatalf("target features: %v", ts.Features)
	}
	for _, s := range ts.Samples {
		if len(s.BG) != NumFeatures {
			t.Fatalf("bad sample features %v", s.BG)
		}
		if s.Runtime <= 0 || s.IOPS < 0 {
			t.Fatalf("bad responses %+v", s)
		}
	}
}

func TestIdleBackgroundGivesSoloRuntime(t *testing.T) {
	tss, tb := fixture(t)
	ts := tss["blastn"]
	b, _ := workload.BenchmarkByName("blastn")
	solo, err := tb.ProfileSolo(b.Spec)
	if err != nil {
		t.Fatal(err)
	}
	// Sample 0 is the idle grid point.
	if math.Abs(ts.Samples[0].Runtime-solo.Runtime)/solo.Runtime > 0.1 {
		t.Fatalf("idle-background runtime %v far from solo %v", ts.Samples[0].Runtime, solo.Runtime)
	}
}

func TestTrainAllKinds(t *testing.T) {
	tss, _ := fixture(t)
	for _, k := range []Kind{WMM, LM, NLM, NLMNoDom0} {
		m, err := Train(tss["blastn"], k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if m.App != "blastn" || m.Kind != k {
			t.Fatalf("bad model identity %+v", m)
		}
		p := m.PredictRuntime(zeroFeatures())
		if p <= 0 || math.IsNaN(p) {
			t.Fatalf("%v idle prediction %v", k, p)
		}
	}
}

func TestTrainRejectsTinySets(t *testing.T) {
	tss, _ := fixture(t)
	small := &TrainingSet{
		App:      "tiny",
		Features: tss["blastn"].Features,
		Samples:  tss["blastn"].Samples[:4],
	}
	if _, err := Train(small, NLM); err == nil {
		t.Fatal("NLM trained on 4 samples")
	}
}

func TestPredictionsRespondToInterference(t *testing.T) {
	// A heavy background must predict a longer runtime and lower IOPS than
	// an idle one, for every model kind.
	tss, _ := fixture(t)
	ts := tss["blastn"]
	heavy := ts.Samples[124].BG // the (1,1,1) grid corner (replicas follow)
	for _, k := range Kinds() {
		m, err := Train(ts, k)
		if err != nil {
			t.Fatal(err)
		}
		idleRT := m.PredictRuntime(zeroFeatures())
		heavyRT := m.PredictRuntime(heavy)
		if heavyRT <= idleRT {
			t.Errorf("%v: heavy interference runtime %v <= idle %v", k, heavyRT, idleRT)
		}
		idleIO := m.PredictIOPS(zeroFeatures())
		heavyIO := m.PredictIOPS(heavy)
		if heavyIO >= idleIO {
			t.Errorf("%v: heavy interference IOPS %v >= idle %v", k, heavyIO, idleIO)
		}
	}
}

// The Fig 3 reproduction criterion: averaged over data-intensive targets,
// NLM must have the lowest cross-validated runtime prediction error, and
// dropping the Dom0 feature must hurt it substantially.
func TestFig3Ordering(t *testing.T) {
	tss, _ := fixture(t)
	mean := func(k Kind, r Response) float64 {
		tot, n := 0.0, 0
		for _, ts := range tss {
			errs, err := CrossValidate(ts, k, r, 5)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := ErrorSummary(errs)
			tot += m
			n++
		}
		return tot / float64(n)
	}
	nlm := mean(NLM, Runtime)
	lm := mean(LM, Runtime)
	wmm := mean(WMM, Runtime)
	noDom0 := mean(NLMNoDom0, Runtime)
	if nlm >= lm {
		t.Errorf("NLM runtime error %v not below LM %v", nlm, lm)
	}
	if nlm >= wmm {
		t.Errorf("NLM runtime error %v not below WMM %v", nlm, wmm)
	}
	if noDom0 < nlm*1.2 {
		t.Errorf("dropping Dom0 should hurt NLM substantially: %v vs %v", noDom0, nlm)
	}
	if nlm > 0.25 {
		t.Errorf("NLM mean runtime error %v too large", nlm)
	}
	nlmIO := mean(NLM, IOPS)
	lmIO := mean(LM, IOPS)
	if nlmIO >= lmIO {
		t.Errorf("NLM IOPS error %v not below LM %v", nlmIO, lmIO)
	}
}

func TestPredictionErrorMetric(t *testing.T) {
	if e := PredictionError(110, 100); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("err = %v", e)
	}
	if e := PredictionError(90, 100); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("err = %v", e)
	}
	if e := PredictionError(0, 0); e != 0 {
		t.Fatalf("0/0 err = %v", e)
	}
	if e := PredictionError(1, 0); !math.IsInf(e, 1) {
		t.Fatalf("x/0 err = %v", e)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	tss, _ := fixture(t)
	if _, err := CrossValidate(tss["blastn"], NLM, Runtime, 1); err == nil {
		t.Fatal("1 fold accepted")
	}
	errs, err := CrossValidate(tss["blastn"], LM, Runtime, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 125 grid workloads + the replicated no-interference runs.
	if len(errs) != 125+soloReplicas {
		t.Fatalf("got %d errors", len(errs))
	}
	for _, e := range errs {
		if e < 0 || math.IsNaN(e) {
			t.Fatalf("bad error %v", e)
		}
	}
}

func TestLibraryPredictAndLookup(t *testing.T) {
	tss, tb := fixture(t)
	lib := NewLibrary(NLM)
	for name, ts := range tss {
		b, _ := workload.BenchmarkByName(name)
		solo, err := tb.ProfileSolo(b.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.Add(ts, solo); err != nil {
			t.Fatal(err)
		}
	}
	if got := lib.Apps(); len(got) != 3 {
		t.Fatalf("Apps = %v", got)
	}
	// Idle corunner ≈ solo runtime.
	idleRT, err := lib.PredictRuntime("blastn", "")
	if err != nil {
		t.Fatal(err)
	}
	solo, err := lib.SoloRuntime("blastn")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idleRT-solo)/solo > 0.25 {
		t.Fatalf("idle prediction %v far from solo %v", idleRT, solo)
	}
	// A video corunner must be predicted worse than a blastp corunner.
	heavy, err := lib.PredictRuntime("blastn", "video")
	if err != nil {
		t.Fatal(err)
	}
	light, err := lib.PredictRuntime("blastn", "blastp")
	if err != nil {
		t.Fatal(err)
	}
	if heavy <= light {
		t.Fatalf("video corunner (%v) should hurt more than blastp (%v)", heavy, light)
	}
	// Unknown apps error cleanly.
	if _, err := lib.PredictRuntime("nope", ""); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := lib.PredictRuntime("blastn", "nope"); err == nil {
		t.Fatal("unknown corunner accepted")
	}
	if _, err := lib.Features("nope"); err == nil {
		t.Fatal("unknown app features accepted")
	}
}

func TestOraclePredictor(t *testing.T) {
	_, tb := fixture(t)
	var specs []xen.AppSpec
	for _, b := range workload.Benchmarks() {
		specs = append(specs, b.Spec)
	}
	o := NewOracle(tb, specs)
	if len(o.Apps()) != 8 {
		t.Fatalf("oracle apps = %v", o.Apps())
	}
	solo, err := o.SoloRuntime("blastn")
	if err != nil {
		t.Fatal(err)
	}
	with, err := o.PredictRuntime("blastn", "video")
	if err != nil {
		t.Fatal(err)
	}
	if with <= solo {
		t.Fatalf("oracle: corunner runtime %v <= solo %v", with, solo)
	}
	if _, err := o.PredictRuntime("blastn", "nope"); err == nil {
		t.Fatal("unknown corunner accepted")
	}
	// Oracle must handle a task co-located with another instance of itself.
	same, err := o.PredictRuntime("blastn", "blastn")
	if err != nil {
		t.Fatal(err)
	}
	if same <= solo {
		t.Fatalf("self co-location should still interfere: %v vs %v", same, solo)
	}
}
