package experiments

import (
	"strings"
	"sync"
	"testing"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/workload"
)

var (
	envOnce sync.Once
	env     *Env
)

func testEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() {
		e, err := NewEnvParallel(1, 1)
		if err != nil {
			panic(err)
		}
		env = e
	})
	return env
}

// Cell finds the result for a machine count and mix.
func (r *Fig8Result) Cell(machines int, mix workload.IOIntensity) (Fig8Cell, bool) {
	for _, c := range r.Cells {
		if c.Machines == machines && c.Mix == mix {
			return c, true
		}
	}
	return Fig8Cell{}, false
}

// Cell returns the point for (scheduler, machines, lambda, mix).
func (r *DynamicResult) Cell(schedName string, machines int, lambda float64, mix workload.IOIntensity) (DynamicCell, bool) {
	for _, c := range r.Cells {
		if c.Scheduler == schedName && c.Machines == machines && c.Lambda == lambda && c.Mix == mix {
			return c, true
		}
	}
	return DynamicCell{}, false
}

func TestEnvArtifacts(t *testing.T) {
	e := testEnv(t)
	if len(e.Benchmarks) != 8 || len(e.Backgrounds) != 125 {
		t.Fatalf("benchmarks %d backgrounds %d", len(e.Benchmarks), len(e.Backgrounds))
	}
	for _, k := range []model.Kind{model.WMM, model.LM, model.NLM} {
		if e.Libraries[k] == nil || len(e.Libraries[k].Apps()) != 8 {
			t.Fatalf("library %v incomplete", k)
		}
	}
	for _, app := range e.BenchmarkNames() {
		if !e.Table.Has(app) {
			t.Fatalf("table lacks %s", app)
		}
	}
}

func TestTable1ReproducesShape(t *testing.T) {
	e := testEnv(t)
	res, err := Table1(e)
	if err != nil {
		t.Fatal(err)
	}
	calc, seq := res.Rows["calc"], res.Rows["seqread"]
	if len(calc) != 4 || len(seq) != 4 {
		t.Fatalf("rows: %v / %v", calc, seq)
	}
	// Shape: calc doubles under CPU; seqread ~unaffected by CPU-only but
	// an order of magnitude worse under I/O, worst under CPU+I/O.
	if calc[0] < 1.7 || calc[0] > 2.3 {
		t.Errorf("calc vs CPU-high = %v", calc[0])
	}
	if seq[0] > 1.2 {
		t.Errorf("seqread vs CPU-high = %v", seq[0])
	}
	if seq[1] < 5 {
		t.Errorf("seqread vs IO-high = %v, want ≥5×", seq[1])
	}
	if seq[3] <= seq[1] {
		t.Errorf("CPU&IO-high (%v) must exceed IO-high (%v)", seq[3], seq[1])
	}
	if !strings.Contains(res.String(), "seqread") {
		t.Error("renderer missing row")
	}
}

func TestFig3ReproducesOrdering(t *testing.T) {
	e := testEnv(t)
	res, err := Fig3(e)
	if err != nil {
		t.Fatal(err)
	}
	nlm := res.MeanError(model.Runtime, model.NLM)
	lm := res.MeanError(model.Runtime, model.LM)
	wmm := res.MeanError(model.Runtime, model.WMM)
	noDom0 := res.MeanError(model.Runtime, model.NLMNoDom0)
	if !(nlm < lm && nlm < wmm) {
		t.Errorf("NLM (%v) must beat LM (%v) and WMM (%v)", nlm, lm, wmm)
	}
	if nlm > 0.2 {
		t.Errorf("NLM mean runtime error %v too large", nlm)
	}
	if noDom0 < nlm*1.5 {
		t.Errorf("Dom0 ablation should hurt substantially: %v vs %v", noDom0, nlm)
	}
	if got := res.MeanError(model.IOPS, model.NLM); got >= res.MeanError(model.IOPS, model.LM) {
		t.Errorf("NLM IOPS error %v not below LM", got)
	}
}

func TestFig4ModelsHelpScheduler(t *testing.T) {
	e := testEnv(t)
	res, err := Fig4(e, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Kinds {
		if res.Speedup[k].Mean < 1.05 {
			t.Errorf("%v speedup %v — interference-aware batch must beat FIFO", k, res.Speedup[k].Mean)
		}
	}
	if res.IOBoost[model.NLM].Mean <= res.IOBoost[model.LM].Mean {
		t.Errorf("NLM IOBoost %v should beat LM %v", res.IOBoost[model.NLM].Mean, res.IOBoost[model.LM].Mean)
	}
}

func TestFig5PredictedMinIsSane(t *testing.T) {
	e := testEnv(t)
	res, err := Fig5(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 { // web excluded
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		// The paper's claim: the predicted minimum stays close to the
		// measured minimum and never crosses the measured average.
		if r.PredictedMin > r.MeasuredAvg {
			t.Errorf("%s: predicted min %v exceeds measured average %v", r.App, r.PredictedMin, r.MeasuredAvg)
		}
		if r.PredictedMin < 0.5*r.MeasuredMin || r.PredictedMin > 1.5*r.MeasuredMin {
			t.Errorf("%s: predicted min %v far from measured min %v", r.App, r.PredictedMin, r.MeasuredMin)
		}
		if !(r.MeasuredMin <= r.MeasuredAvg && r.MeasuredAvg <= r.MeasuredMax) {
			t.Errorf("%s: measured ordering broken", r.App)
		}
	}
}

func TestFig6PredictedMaxIsSane(t *testing.T) {
	e := testEnv(t)
	res, err := Fig6(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		// The predicted best case must stay within the measured envelope
		// (above the worst case, not wildly above the best case).
		if r.PredictedMax < r.MeasuredMin*0.8 {
			t.Errorf("%s: predicted max %v below measured min %v", r.App, r.PredictedMax, r.MeasuredMin)
		}
		if r.PredictedMax > r.MeasuredMax*1.5 {
			t.Errorf("%s: predicted max %v far above measured max %v", r.App, r.PredictedMax, r.MeasuredMax)
		}
	}
}

func TestFig7AdaptationStory(t *testing.T) {
	e := testEnv(t)
	res, err := Fig7(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShockErr < res.InitialErr*3 {
		t.Errorf("environment change must spike the error: %v → %v", res.InitialErr, res.ShockErr)
	}
	if res.FinalErr > res.ShockErr/2 {
		t.Errorf("online learning must recover: shock %v, final %v", res.ShockErr, res.FinalErr)
	}
	if len(res.Rebuilds) < 2 {
		t.Errorf("expected periodic rebuilds, got %v", res.Rebuilds)
	}
}

func TestFig8SpeedupShape(t *testing.T) {
	e := testEnv(t)
	res, err := Fig8(e, []int{8, 32}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var medium, heavy float64
	for _, c := range res.Cells {
		if c.SpeedupRT < 0.95 {
			t.Errorf("machines=%d mix=%s: MIBS_RT speedup collapsed to %v", c.Machines, c.Mix, c.SpeedupRT)
		}
		if c.Machines == 32 {
			switch c.Mix {
			case workload.MediumIO:
				medium = c.SpeedupRT
			case workload.HeavyIO:
				heavy = c.SpeedupRT
			}
		}
	}
	// The paper's headline: medium I/O gains the most, heavy the least.
	if medium <= heavy {
		t.Errorf("medium mix speedup (%v) should exceed heavy (%v)", medium, heavy)
	}
}

func TestFig9DynamicShape(t *testing.T) {
	e := testEnv(t)
	res, err := Fig9(e, []float64{2, 50}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Low λ: everything ≈ FIFO. High λ on the medium mix: the batch
	// schedulers must win.
	low, ok := res.Cell("MIBS8", 64, 2, workload.MediumIO)
	if !ok {
		t.Fatal("missing cell")
	}
	if low.Normalized < 0.9 || low.Normalized > 1.1 {
		t.Errorf("λ=2 normalized throughput %v should be ≈1", low.Normalized)
	}
	high, _ := res.Cell("MIBS8", 64, 50, workload.MediumIO)
	if high.Normalized < 1.03 {
		t.Errorf("λ=50 MIBS8 normalized throughput %v should clearly beat FIFO", high.Normalized)
	}
	mix, _ := res.Cell("MIX8", 64, 50, workload.MediumIO)
	if mix.Normalized < high.Normalized-0.05 {
		t.Errorf("MIX8 (%v) should not trail MIBS8 (%v) badly", mix.Normalized, high.Normalized)
	}
}

func TestFig10QueueLengthHelps(t *testing.T) {
	e := testEnv(t)
	res, err := Fig10(e, []float64{50}, 2)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := res.Cell("MIBS2", 64, 50, workload.MediumIO)
	q8, _ := res.Cell("MIBS8", 64, 50, workload.MediumIO)
	if q8.Normalized < q2.Normalized-0.02 {
		t.Errorf("longer queue should not hurt: q8 %v vs q2 %v", q8.Normalized, q2.Normalized)
	}
}

func TestFig11Scales(t *testing.T) {
	e := testEnv(t)
	res, err := Fig11(e, []int{8, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Normalized < 0.9 {
			t.Errorf("%s at %d machines collapsed: %v", c.Scheduler, c.Machines, c.Normalized)
		}
	}
	c8, _ := res.Cell("MIBS8", 32, 1000, workload.MediumIO)
	if c8.Normalized < 1.02 {
		t.Errorf("MIBS8 under overload should beat FIFO, got %v", c8.Normalized)
	}
}

func TestRenderersNonEmpty(t *testing.T) {
	e := testEnv(t)
	f3, err := Fig3(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{f3.String()} {
		if len(s) < 100 || !strings.Contains(s, "NLM") {
			t.Error("renderer output suspicious")
		}
	}
}

func TestStorageStudyShape(t *testing.T) {
	e := testEnv(t)
	res, err := StorageStudy(e)
	if err != nil {
		t.Fatal(err)
	}
	byDev := map[string]StorageRow{}
	for _, r := range res.Rows {
		byDev[r.Device] = r
	}
	hdd, ssd := byDev["hdd"], byDev["ssd"]
	if hdd.SeqReadVsIOHigh < 5 {
		t.Errorf("HDD interference %v too tame", hdd.SeqReadVsIOHigh)
	}
	if ssd.SeqReadVsIOHigh > hdd.SeqReadVsIOHigh/2 {
		t.Errorf("SSD interference %v should be far below HDD %v", ssd.SeqReadVsIOHigh, hdd.SeqReadVsIOHigh)
	}
	// The scheduler's value tracks the violence of interference.
	if hdd.MIBSSpeedup < ssd.MIBSSpeedup {
		t.Errorf("scheduling should matter more on HDD (%v) than SSD (%v)", hdd.MIBSSpeedup, ssd.MIBSSpeedup)
	}
}

func TestCSVTables(t *testing.T) {
	e := testEnv(t)
	t1, err := Table1(e)
	if err != nil {
		t.Fatal(err)
	}
	tab := t1.Table()
	if len(tab.Header) != 5 || len(tab.Rows) != 2 {
		t.Fatalf("table1 CSV shape %dx%d", len(tab.Header), len(tab.Rows))
	}
	f3, err := Fig3(e)
	if err != nil {
		t.Fatal(err)
	}
	tab3 := f3.Table()
	if len(tab3.Rows) != 2*8*4 { // responses × apps × kinds
		t.Fatalf("fig3 CSV rows %d", len(tab3.Rows))
	}
	for _, row := range tab3.Rows {
		if len(row) != len(tab3.Header) {
			t.Fatal("ragged fig3 CSV")
		}
	}
	f5, err := Fig5(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f5.Table().Rows); got != 7 {
		t.Fatalf("fig5 CSV rows %d", got)
	}
}

// RunQueueLength runs MIBS with the given queue length under Poisson
// arrivals and returns its throughput normalized to FIFO on the same
// arrivals — the ablation behind Figs 10/12 extended to arbitrary q
// (q = 1 degenerates to head-only batching, close to MIOS).
func RunQueueLength(e *Env, q, machines int, lambda, horizon float64) (float64, error) {
	tasks := poissonTasks(workload.MediumIO, lambda, horizon, e.Seed+int64(q)*37)
	fifo, err := e.simulate("dynamic", sched.FIFO{}, machines, tasks, horizon)
	if err != nil {
		return 0, err
	}
	mibs, err := e.simulate("dynamic", &sched.MIBS{
		Scorer:   e.scorerFor(model.NLM, sched.MinRuntime),
		QueueLen: q,
	}, machines, tasks, horizon)
	if err != nil {
		return 0, err
	}
	if fifo.CompletedTasks() == 0 {
		return 0, nil
	}
	return mibs.CompletedTasks() / fifo.CompletedTasks(), nil
}

func TestRunQueueLengthAblation(t *testing.T) {
	e := testEnv(t)
	n1, err := RunQueueLength(e, 1, 16, 20, 3600)
	if err != nil {
		t.Fatal(err)
	}
	n8, err := RunQueueLength(e, 8, 16, 20, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if n1 <= 0 || n8 <= 0 {
		t.Fatal("ablation produced zero throughput")
	}
	if n8 < n1-0.1 {
		t.Errorf("longer queue should not hurt: q8=%v q1=%v", n8, n1)
	}
}
