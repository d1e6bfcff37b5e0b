package simobs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tracon/internal/model"
	"tracon/internal/obs"
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

// runObserved executes one MIBS run on 4 machines with its observer from
// runs, registered under kind.
func runObserved(t *testing.T, runs *Runs, kind string, seed int64, n int) *sim.Results {
	t.Helper()
	tasks := genTasks(seed, n, 20)
	s := &sched.MIBS{Scorer: sched.NewScorer(oracle(t), sched.MinRuntime), QueueLen: 6}
	eng, err := sim.NewEngine(sim.Config{Machines: 4, Scheduler: s, Table: table(t), Observer: runs.Observer(kind, s.Name(), 4, tasks)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimStatsEndToEnd(t *testing.T) {
	runs := New(Options{Metrics: true, Audit: true, AuditEvery: 1})
	res := runObserved(t, runs, "test-run", 3, 150)

	var audit strings.Builder
	if err := runs.WriteAudit(&audit); err != nil {
		t.Fatal(err)
	}
	if n := runs.Violations(); n != 0 {
		t.Fatalf("auditor found %d violations on a healthy run:\n%s", n, audit.String())
	}
	if !strings.Contains(audit.String(), "0 violations") {
		t.Fatalf("summary: %s", audit.String())
	}
	s := runs.Metrics()[0]
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
// byte-identical JSON and CSV.
func TestMetricsExportDeterministic(t *testing.T) {
	export := func() (string, string) {
		runs := New(Options{Metrics: true})
		runObserved(t, runs, "test", 3, 100)
		var j, v bytes.Buffer
		if err := runs.WriteMetricsJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := runs.WriteMetricsCSV(&v); err != nil {
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

// TestRunsDuplicateLabel: two runs under one label keep their own
// observers. Metrics, trace and audit each report two runs under distinct
// labels, every row holding one run's events, and the collision is
// counted once.
func TestRunsDuplicateLabel(t *testing.T) {
	runs := New(Options{Metrics: true, Trace: true, Audit: true, AuditEvery: 16})
	res := runObserved(t, runs, "same", 3, 60)
	runObserved(t, runs, "same", 3, 60)
	if runs.Collisions() != 1 || runs.Len() != 2 {
		t.Fatalf("collisions=%d len=%d, want 1 and 2", runs.Collisions(), runs.Len())
	}

	rows := runs.Metrics()
	if len(rows) != 2 || rows[0].Label == rows[1].Label {
		t.Fatalf("%d metrics rows for two runs under one label", len(rows))
	}
	for _, r := range rows {
		if r.Events["arrival"] != int64(res.Submitted) || r.Completed != res.CompletedCount {
			t.Fatalf("row %s: %d arrivals, %d completed; one run has %d and %d",
				r.Label, r.Events["arrival"], r.Completed, res.Submitted, res.CompletedCount)
		}
	}

	var ndjson bytes.Buffer
	if err := runs.WriteNDJSON(&ndjson); err != nil {
		t.Fatal(err)
	}
	traces, err := obs.ReadTraces(&ndjson)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || traces[0].Label >= traces[1].Label {
		t.Fatalf("%d trace runs, want 2 in label order", len(traces))
	}
	for i, tr := range traces {
		if tr.Label != rows[i].Label {
			t.Fatalf("trace run %d is %s, metrics row %s", i, tr.Label, rows[i].Label)
		}
		if tr.Total != traces[0].Total {
			t.Fatalf("trace runs hold %d and %d events", traces[0].Total, tr.Total)
		}
	}

	var audit strings.Builder
	if err := runs.WriteAudit(&audit); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(audit.String(), "\n"); n != 2 {
		t.Fatalf("%d audit lines, want 2:\n%s", n, audit.String())
	}
}

// TestRunsExport: the export files hold exactly what the writers write,
// and the trace file reads back into exactly the events the run's ring
// holds, so no TraceEvent field is lost on the way out or in.
func TestRunsExport(t *testing.T) {
	runs := New(Options{Metrics: true, Trace: true, Audit: true})
	runObserved(t, runs, "export", 5, 40)
	dir := t.TempDir()
	jsonPath, csvPath, err := runs.ExportMetrics(dir, "seed1")
	if err != nil {
		t.Fatal(err)
	}
	tracePath, err := runs.ExportTrace(dir, "seed1")
	if err != nil {
		t.Fatal(err)
	}
	for path, name := range map[string]string{jsonPath: "metrics_seed1.json", csvPath: "metrics_seed1.csv", tracePath: "trace_seed1.ndjson"} {
		if filepath.Base(path) != name {
			t.Fatalf("wrote %s, want %s", path, name)
		}
	}
	for _, f := range []struct {
		path  string
		write func(w *bytes.Buffer) error
	}{
		{jsonPath, func(w *bytes.Buffer) error { return runs.WriteMetricsJSON(w) }},
		{csvPath, func(w *bytes.Buffer) error { return runs.WriteMetricsCSV(w) }},
		{tracePath, func(w *bytes.Buffer) error { return runs.WriteNDJSON(w) }},
	} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := f.write(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) || len(got) == 0 {
			t.Fatalf("%s: %d bytes, the writer gives %d", f.path, len(got), want.Len())
		}
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	read, err := obs.ReadTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(read) != 1 || read[0].Dropped != 0 || len(read[0].Events) == 0 {
		t.Fatalf("read %d runs for one traced run without drops", len(read))
	}
	if !reflect.DeepEqual(read[0].Events, runs.sorted()[0].trace.Events()) {
		t.Fatal("events did not survive the NDJSON round trip")
	}
}
