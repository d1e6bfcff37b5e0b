package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/sim"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

var (
	tblOnce sync.Once
	tbl     *sim.InterferenceTable
	tblTB   *xen.Testbed
)

func table(t *testing.T) *sim.InterferenceTable {
	t.Helper()
	tblOnce.Do(func() {
		host, err := xen.NewHost(xen.DefaultHost())
		if err != nil {
			panic(err)
		}
		tblTB = xen.NewTestbed(host, 1, 0, 1)
		var specs []xen.AppSpec
		for _, b := range workload.Benchmarks() {
			specs = append(specs, b.Spec)
		}
		tbl, err = sim.BuildInterferenceTable(host, specs)
		if err != nil {
			panic(err)
		}
	})
	return tbl
}

func oracle(t *testing.T) model.Predictor {
	t.Helper()
	table(t)
	var specs []xen.AppSpec
	for _, b := range workload.Benchmarks() {
		specs = append(specs, b.Spec)
	}
	return model.NewOracle(tblTB, specs)
}

func genTasks(seed int64, n int, spacing float64) []sched.Task {
	mix := workload.NewMixer(seed)
	batch := mix.Batch(workload.MediumIO, n)
	tasks := make([]sched.Task, n)
	tm := 0.0
	for i, spec := range batch {
		if i%5 != 0 {
			tm += spacing * float64(1+(i*2654435761)%4)
		}
		tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(spec.Name), Arrival: tm}
	}
	return tasks
}

// runObserved executes one MIBS run with the given observer attached.
func runObserved(t *testing.T, o sim.Observer, seed int64, n int) *sim.Results {
	t.Helper()
	s := &sched.MIBS{Scorer: sched.NewScorer(oracle(t), sched.MinRuntime), QueueLen: 6}
	eng, err := sim.NewEngine(sim.Config{Machines: 4, Scheduler: s, Table: table(t), Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(genTasks(seed, n, 20), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, name := range order {
			r.Counter("c_" + name).Add(3)
			r.Gauge("g_" + name).Set(7)
			r.Histogram("h_"+name, []float64{1, 10}).Observe(5)
		}
		return r
	}
	a := build([]string{"x", "y", "z"}).Snapshot()
	b := build([]string{"z", "x", "y"}).Snapshot()
	if len(a) != 9 || len(a) != len(b) {
		t.Fatalf("snapshot sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind || a[i].Value != b[i].Value {
			t.Fatalf("snapshot order differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1} // ≤1: {0.5,1}; ≤2: {1.5}; ≤4: {3}; over: {100}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.N != 5 || s.Mean() != 106.0/5 {
		t.Fatalf("n=%d mean=%v", s.N, s.Mean())
	}
	if g := (&Gauge{}); func() float64 { g.Set(3); g.Set(1); return g.Max() }() != 3 {
		t.Fatal("gauge max not retained")
	}
}

func TestSimStatsEndToEnd(t *testing.T) {
	stats := NewSimStats("test-run")
	audit := &InvariantAuditor{Every: 1, Strict: true}
	res := runObserved(t, Multi{stats, audit}, 3, 150)

	if n := audit.Total(); n != 0 {
		t.Fatalf("auditor found %d violations on a healthy run:\n%s", n, audit.Summary())
	}
	if !strings.Contains(audit.Summary(), "0 violations") {
		t.Fatalf("summary: %s", audit.Summary())
	}
	s := stats.Snapshot(true)
	if s.Completed != res.CompletedCount || s.Completed == 0 {
		t.Fatalf("stats completed %d, results %d", s.Completed, res.CompletedCount)
	}
	if s.Events["arrival"] != int64(res.Submitted) {
		t.Fatalf("arrival events %d, submitted %d", s.Events["arrival"], res.Submitted)
	}
	if s.Events["completion"] != int64(res.CompletedCount) {
		t.Fatalf("completion events %d, completed %d", s.Events["completion"], res.CompletedCount)
	}
	if s.SlotUtilization <= 0 || s.SlotUtilization > 1 {
		t.Fatalf("slot utilization %v out of (0,1]", s.SlotUtilization)
	}
	if s.EnergyJ <= 0 {
		t.Fatalf("energy %v", s.EnergyJ)
	}
	if len(s.PerApp) == 0 {
		t.Fatal("no per-app prediction error collected")
	}
	for _, a := range s.PerApp {
		if a.N <= 0 || a.MeanAbsRelErr < 0 || a.MeanRealized <= 0 {
			t.Fatalf("per-app stats malformed: %+v", a)
		}
	}
	if s.SchedCalls == 0 || s.PopsTotal == 0 {
		t.Fatalf("scheduler/pool hooks never fired: %+v", s)
	}
	if len(s.QueueTimeline) == 0 || s.MaxQueueLen == 0 {
		t.Fatal("queue timeline empty")
	}
}

// TestMetricsExportDeterministic: two identical runs must export
// byte-identical JSON and CSV (wall latency excluded).
func TestMetricsExportDeterministic(t *testing.T) {
	export := func() (string, string) {
		c := NewCollector()
		label := RunLabel("test", "mibs", 4, genTasks(3, 100, 20))
		runObserved(t, c.Observer(label), 3, 100)
		var j, v bytes.Buffer
		if err := c.WriteJSON(&j, false); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteCSV(&v); err != nil {
			t.Fatal(err)
		}
		return j.String(), v.String()
	}
	j1, c1 := export()
	j2, c2 := export()
	if j1 != j2 {
		t.Fatal("JSON export differs between identical runs")
	}
	if c1 != c2 {
		t.Fatal("CSV export differs between identical runs")
	}
	if !strings.Contains(c1, "slot_utilization") {
		t.Fatalf("csv header missing: %q", c1[:80])
	}
}

// TestAuditorCatchesViolations feeds the auditor fabricated bad inputs
// through a View captured from a real (healthy, finished) run.
func TestAuditorCatchesViolations(t *testing.T) {
	var captured sim.View
	grab := viewGrabber{v: &captured}
	runObserved(t, grab, 5, 40)

	t.Run("time-backwards", func(t *testing.T) {
		a := &InvariantAuditor{Every: 1, Strict: true}
		if err := a.Observe(captured, step(100)); err != nil {
			t.Fatalf("first event: %v", err)
		}
		if err := a.Observe(captured, step(50)); err == nil {
			t.Fatal("clock regression not caught")
		}
	})
	t.Run("residual-work", func(t *testing.T) {
		a := &InvariantAuditor{Every: 1, Strict: true}
		c := sim.Completion{Residual: 0.5}
		c.Record.Task.ID = 7
		c.Record.Task.App = "email"
		if err := a.Observe(captured, completion(c)); err == nil {
			t.Fatal("leftover work at completion not caught")
		}
		if err := a.Observe(captured, completion(sim.Completion{Residual: 1e-9})); err != nil {
			t.Fatalf("tolerable residual rejected: %v", err)
		}
	})
	t.Run("unfair-pop", func(t *testing.T) {
		a := &InvariantAuditor{Every: 1, Strict: true}
		p := sim.PopInfo{Category: sched.AnyCategory, Machine: 1, Slot: 0,
			OldestMachine: 0, OldestSlot: 1, OldestOK: true}
		if err := a.Observe(captured, pop(p)); err == nil {
			t.Fatal("FIFO-unfair pop not caught")
		}
		fair := sim.PopInfo{Category: sched.AnyCategory, Machine: 0, Slot: 1,
			OldestMachine: 0, OldestSlot: 1, OldestOK: true}
		if err := a.Observe(captured, pop(fair)); err != nil {
			t.Fatalf("fair pop rejected: %v", err)
		}
		if err := a.Observe(captured, pop(sim.PopInfo{Category: "email", Machine: 9})); err != nil {
			t.Fatalf("category pop must be exempt from FIFO check: %v", err)
		}
	})
	t.Run("non-strict-tallies", func(t *testing.T) {
		a := &InvariantAuditor{Every: 1 << 30} // skip full scans; O(1) checks only
		if err := a.Observe(captured, step(100)); err != nil {
			t.Fatal(err)
		}
		if err := a.Observe(captured, step(50)); err != nil {
			t.Fatalf("non-strict auditor must not abort: %v", err)
		}
		if err := a.Observe(captured, completion(sim.Completion{Residual: 2})); err != nil {
			t.Fatalf("non-strict auditor must not abort: %v", err)
		}
		if a.Total() != 2 {
			t.Fatalf("tallied %d violations, want 2", a.Total())
		}
		if !strings.Contains(a.Summary(), "2 VIOLATIONS") {
			t.Fatalf("summary: %s", a.Summary())
		}
	})
}

// viewGrabber captures the engine's View handle for post-run fabrication
// of auditor inputs.
type viewGrabber struct{ v *sim.View }

func (g viewGrabber) Observe(v sim.View, _ sim.Event) error { *g.v = v; return nil }

// step, completion and pop fabricate auditor inputs.
func step(now float64) sim.Event { return sim.Event{Kind: sim.OnStep, Step: sim.EvArrival, Now: now} }
func completion(c sim.Completion) sim.Event {
	return sim.Event{Kind: sim.OnComplete, Complete: c}
}
func pop(p sim.PopInfo) sim.Event { return sim.Event{Kind: sim.OnPop, Pop: p} }

func TestRunLabelDeterministic(t *testing.T) {
	tasks := genTasks(11, 30, 10)
	a := RunLabel("fig3", "tracon", 8, tasks)
	b := RunLabel("fig3", "tracon", 8, genTasks(11, 30, 10))
	if a != b {
		t.Fatalf("labels differ for identical inputs: %s vs %s", a, b)
	}
	tasks[0].Arrival += 1
	if RunLabel("fig3", "tracon", 8, tasks) == a {
		t.Fatal("label insensitive to task stream")
	}
	if RunLabel("fig3", "tracon", 16, genTasks(11, 30, 10)) == a {
		t.Fatal("label insensitive to cluster size")
	}
}
