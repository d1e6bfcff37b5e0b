package obs_test

// The tests in this file need a real simulator run: they read the
// analyses, the Perfetto export and the NDJSON reader of package obs off
// runs recorded the way traconbench -trace records them (simobs.Runs),
// and check the invariant auditor against a finished run's View. Package
// simobs imports obs, so they live in an external test package.

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"tracon/internal/fault"
	"tracon/internal/model"
	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/sim"
	"tracon/internal/simobs"
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

func mibs(t *testing.T) sched.Scheduler {
	return &sched.MIBS{Scorer: sched.NewScorer(oracle(t), sched.MinRuntime), QueueLen: 6}
}

// runTraced executes tasks on machines under s with a tracer attached
// (capacity <= 0 takes obs.DefaultTraceCap), or with no observer when
// traced is false, and returns the results and the NDJSON export.
func runTraced(t *testing.T, s sched.Scheduler, machines int, tasks []sched.Task, traced bool, capacity int) (*sim.Results, []byte) {
	t.Helper()
	runs := simobs.New(simobs.Options{Trace: true, TraceCap: capacity})
	cfg := sim.Config{Machines: machines, Scheduler: s, Table: table(t)}
	if traced {
		cfg.Observer = runs.Observer("test", s.Name(), machines, tasks)
	}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runs.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// traceRun runs one traced MIBS run on 4 machines and reads it back.
func traceRun(t *testing.T, seed int64, n int) (*sim.Results, *obs.RunTrace) {
	t.Helper()
	res, ndjson := runTraced(t, mibs(t), 4, genTasks(seed, n, 20), true, 0)
	runs, err := obs.ReadTraces(bytes.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("parsed %d runs, want 1", len(runs))
	}
	return res, runs[0]
}

func TestTraceNDJSONRoundTrip(t *testing.T) {
	s := mibs(t)
	tasks := genTasks(9, 60, 20)
	res, ndjson := runTraced(t, s, 4, tasks, true, 0)
	runs, err := obs.ReadTraces(bytes.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("parsed %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.Label != simobs.RunLabel("test", s.Name(), 4, tasks) || r.Scheduler != s.Name() || r.Machines != 4 {
		t.Fatalf("header mismatch: %+v", r)
	}
	if r.Dropped != 0 || r.Total != int64(len(r.Events)) {
		t.Fatalf("header counts: total=%d dropped=%d events=%d", r.Total, r.Dropped, len(r.Events))
	}
	// Every event read back re-encodes to the line it was read from. That
	// the lines hold every field of the ring's events is simobs's
	// TestRunsExport.
	lines := strings.Split(strings.TrimSuffix(string(ndjson), "\n"), "\n")
	if len(lines) != 1+len(r.Events) {
		t.Fatalf("%d lines for a header and %d events", len(lines), len(r.Events))
	}
	for i, ev := range r.Events {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != lines[1+i] {
			t.Fatalf("event %d did not survive the NDJSON round trip:\n%s\n%s", i, lines[1+i], b)
		}
	}
	if first := r.Events[0].Kind; first != "arrival" {
		t.Fatalf("first event %q, want arrival", first)
	}
	if last := r.Events[len(r.Events)-1]; last.Kind != "done" ||
		last.Done == nil || last.Done.Completed != res.CompletedCount {
		t.Fatalf("last event %+v, want done with %d completed", last, res.CompletedCount)
	}
	// The stream must hold every lifecycle stage.
	kinds := map[string]int{}
	for _, ev := range r.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []string{"arrival", "enqueue", "decision", "pop", "place", "segment", "complete", "done"} {
		if kinds[k] == 0 {
			t.Fatalf("no %q events in trace (kinds: %v)", k, kinds)
		}
	}
	if kinds["complete"] != res.CompletedCount {
		t.Fatalf("complete events %d, results %d", kinds["complete"], res.CompletedCount)
	}
}

// TestTracerNoPerturbation: attaching a tracer must leave the simulation's
// results bit-identical.
func TestTracerNoPerturbation(t *testing.T) {
	tasks := genTasks(13, 80, 20)
	plain, _ := runTraced(t, mibs(t), 4, tasks, false, 0)
	traced, _ := runTraced(t, mibs(t), 4, tasks, true, 128)
	if plain.CompletedCount != traced.CompletedCount ||
		plain.TotalRuntime != traced.TotalRuntime ||
		plain.Horizon != traced.Horizon ||
		plain.TotalIOPS != traced.TotalIOPS {
		t.Fatalf("tracer perturbed results:\nplain  %+v\ntraced %+v", plain, traced)
	}
}

func TestPerfettoExport(t *testing.T) {
	_, run := traceRun(t, 21, 40)
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, run); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		Unit        string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	ph := map[string]int{}
	for _, ev := range doc.TraceEvents {
		p, _ := ev["ph"].(string)
		ph[p]++
		if p == "X" {
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("X event without non-negative dur: %v", ev)
			}
		}
		if ts, ok := ev["ts"].(float64); ok && ts < 0 {
			t.Fatalf("negative timestamp: %v", ev)
		}
	}
	for _, p := range []string{"X", "M", "b", "e", "C", "i"} {
		if ph[p] == 0 {
			t.Fatalf("no %q phase events (have %v)", p, ph)
		}
	}
	if ph["b"] != ph["e"] {
		t.Fatalf("unbalanced async spans: %d b vs %d e", ph["b"], ph["e"])
	}
}

func TestTaskSpansAndBreakdowns(t *testing.T) {
	res, run := traceRun(t, 31, 70)

	spans := run.TaskSpans()
	if len(spans) != res.Submitted {
		t.Fatalf("spans %d, submitted %d", len(spans), res.Submitted)
	}
	completed := 0
	for i, s := range spans {
		if s.Task != int64(i) {
			t.Fatalf("spans not sorted by task: %d at %d", s.Task, i)
		}
		if s.Completed {
			completed++
			if s.Wait() < 0 || s.Runtime() <= 0 || s.Work <= 0 {
				t.Fatalf("degenerate span %+v", s)
			}
			if s.Dilation() < -1e-9 {
				t.Fatalf("negative dilation %v for task %d", s.Dilation(), s.Task)
			}
		}
	}
	if completed != res.CompletedCount {
		t.Fatalf("completed spans %d, results %d", completed, res.CompletedCount)
	}

	apps := obs.AppBreakdowns(spans)
	if len(apps) == 0 {
		t.Fatal("no app breakdowns")
	}
	sum := 0
	for i, a := range apps {
		sum += a.N
		if i > 0 && apps[i-1].App >= a.App {
			t.Fatal("breakdowns not sorted by app")
		}
		if a.MeanExec < a.MeanSolo {
			t.Fatalf("%s: mean exec %.2f < mean solo %.2f", a.App, a.MeanExec, a.MeanSolo)
		}
		if a.MaxWait < 0 || a.MeanWait < 0 || a.MaxWait+1e-9 < a.MeanWait {
			t.Fatalf("%s: wait stats inconsistent: %+v", a.App, a)
		}
	}
	if sum != completed {
		t.Fatalf("breakdown N sums to %d, want %d", sum, completed)
	}

	top := obs.TopWaits(spans, 5)
	if len(top) != 5 {
		t.Fatalf("top-5 returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Wait() > top[i-1].Wait() {
			t.Fatal("top waits not descending")
		}
	}
}

func TestMachineTimelines(t *testing.T) {
	_, run := traceRun(t, 41, 60)
	tls := run.MachineTimelines()
	if len(tls) == 0 || len(tls) > 4 {
		t.Fatalf("%d machine timelines for a 4-machine run", len(tls))
	}
	for i, tl := range tls {
		if i > 0 && tls[i-1].Machine >= tl.Machine {
			t.Fatal("timelines not sorted by machine")
		}
		if tl.Busy <= 0 || tl.Segments == 0 {
			t.Fatalf("idle timeline on a busy run: %+v", tl)
		}
		if tl.Lost < 0 || tl.Contended < 0 || tl.Contended > tl.Busy+1e-9 {
			t.Fatalf("inconsistent timeline: %+v", tl)
		}
	}
}

// TestCriticalPathDAG runs a three-task dependency chain on one machine
// and expects the critical path to follow the workflow edges.
func TestCriticalPathDAG(t *testing.T) {
	tasks := genTasks(7, 3, 0)
	for i := range tasks {
		tasks[i].Arrival = 0
		tasks[i].DependsOn = nil
	}
	tasks[1].DependsOn = []int64{0}
	tasks[2].DependsOn = []int64{1}

	res, ndjson := runTraced(t, sched.FIFO{}, 1, tasks, true, 0)
	if res.CompletedCount != 3 {
		t.Fatalf("completed %d, want 3", res.CompletedCount)
	}
	runs, err := obs.ReadTraces(bytes.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	run := runs[0]
	cp := run.CriticalPath()
	if len(cp) != 3 {
		t.Fatalf("critical path %+v, want 3 hops", cp)
	}
	for i, want := range []int64{0, 1, 2} {
		if cp[i].Task != want {
			t.Fatalf("hop %d is task %d, want %d (%+v)", i, cp[i].Task, want, cp)
		}
	}
	if cp[0].Reason != "arrival" {
		t.Fatalf("first hop via %q, want arrival", cp[0].Reason)
	}
	for _, h := range cp[1:] {
		if h.Reason != "dependency" {
			t.Fatalf("hop %+v, want dependency", h)
		}
	}

	var buf bytes.Buffer
	run.Summarize(&buf, 3)
	for _, want := range []string{"per-app breakdown", "critical path (3 hops)", "via dependency", "per-machine contention"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

// TestAuditorCatchesViolations feeds the auditor fabricated bad inputs
// through a View captured from a real (healthy, finished) run.
func TestAuditorCatchesViolations(t *testing.T) {
	var captured sim.View
	eng, err := sim.NewEngine(sim.Config{Machines: 4, Scheduler: mibs(t), Table: table(t), Observer: viewGrabber{v: &captured}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(genTasks(5, 40, 20), math.Inf(1)); err != nil {
		t.Fatal(err)
	}

	t.Run("time-backwards", func(t *testing.T) {
		a := &simobs.InvariantAuditor{Every: 1, Strict: true}
		if err := a.Observe(captured, step(100)); err != nil {
			t.Fatalf("first event: %v", err)
		}
		if err := a.Observe(captured, step(50)); err == nil {
			t.Fatal("clock regression not caught")
		}
	})
	t.Run("residual-work", func(t *testing.T) {
		a := &simobs.InvariantAuditor{Every: 1, Strict: true}
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
		a := &simobs.InvariantAuditor{Every: 1, Strict: true}
		// The finished run left every VM free: a pop stamped later than
		// any of them passed over an older free VM; one stamped before all
		// of them was the longest-free.
		stale := sim.PopInfo{Category: sched.AnyCategory, Machine: 1, Slot: 0, FreeGen: 1 << 40}
		if err := a.Observe(captured, pop(stale)); err == nil {
			t.Fatal("FIFO-unfair pop not caught")
		}
		fair := sim.PopInfo{Category: sched.AnyCategory, Machine: 0, Slot: 1, FreeGen: 0}
		if err := a.Observe(captured, pop(fair)); err != nil {
			t.Fatalf("fair pop rejected: %v", err)
		}
		if err := a.Observe(captured, pop(sim.PopInfo{Category: "email", Machine: 9})); err != nil {
			t.Fatalf("category pop must be exempt from FIFO check: %v", err)
		}
	})
	t.Run("non-strict-tallies", func(t *testing.T) {
		a := &simobs.InvariantAuditor{Every: 1 << 30} // skip full scans; O(1) checks only
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

func (g viewGrabber) Observe(v sim.View, _ *sim.Event) error { *g.v = v; return nil }

// step, completion and pop fabricate auditor inputs.
func step(now float64) *sim.Event { return &sim.Event{Kind: sim.OnStep, Step: sim.EvArrival, Now: now} }
func completion(c sim.Completion) *sim.Event {
	return &sim.Event{Kind: sim.OnComplete, Complete: c}
}
func pop(p sim.PopInfo) *sim.Event { return &sim.Event{Kind: sim.OnPop, Pop: p} }

func TestHistogramQuantile(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if q := obs.NewHistogram([]float64{1, 2}).Snapshot().Quantile(0.5); q != 0 {
			t.Fatalf("empty histogram p50 = %v", q)
		}
	})
	t.Run("single-bucket", func(t *testing.T) {
		h := obs.NewHistogram([]float64{10})
		for i := 0; i < 5; i++ {
			h.Observe(3)
		}
		// All mass in [0,10]: the median interpolates to the bucket middle.
		if q := h.Snapshot().Quantile(0.5); q != 5 {
			t.Fatalf("p50 = %v, want 5", q)
		}
		if q := h.Snapshot().Quantile(1); q != 10 {
			t.Fatalf("p100 = %v, want 10", q)
		}
	})
	t.Run("all-overflow", func(t *testing.T) {
		h := obs.NewHistogram([]float64{1})
		h.Observe(5)
		h.Observe(50)
		// The histogram cannot see past its last bound; the estimate
		// saturates there.
		if q := h.Snapshot().Quantile(0.5); q != 1 {
			t.Fatalf("overflow p50 = %v, want last bound 1", q)
		}
	})
	t.Run("interpolation", func(t *testing.T) {
		h := obs.NewHistogram([]float64{1, 2, 4})
		for _, v := range []float64{0.5, 1.5, 1.6, 3, 3.5} {
			h.Observe(v)
		}
		// target(0.5)=2.5 → 1.5 ranks into bucket (1,2]: 1 + (2.5−1)/2 × 1.
		if q := h.Snapshot().Quantile(0.5); math.Abs(q-1.75) > 1e-12 {
			t.Fatalf("p50 = %v, want 1.75", q)
		}
		if p95, p99 := h.Snapshot().Quantile(0.95), h.Snapshot().Quantile(0.99); p95 > p99 {
			t.Fatalf("quantiles not monotone: p95=%v p99=%v", p95, p99)
		}
	})
	t.Run("clamping", func(t *testing.T) {
		h := obs.NewHistogram([]float64{1})
		h.Observe(0.5)
		if h.Snapshot().Quantile(-3) != h.Snapshot().Quantile(0) || h.Snapshot().Quantile(7) != h.Snapshot().Quantile(1) {
			t.Fatal("q not clamped to [0,1]")
		}
	})
	t.Run("csv-surfaced", func(t *testing.T) {
		var csv bytes.Buffer
		if err := simobs.New(simobs.Options{Metrics: true}).WriteMetricsCSV(&csv); err != nil {
			t.Fatal(err)
		}
		header := csv.String()
		for _, col := range []string{"queue_p50", "queue_p95", "queue_p99"} {
			if !strings.Contains(header, col) {
				t.Fatalf("csv header missing %s: %s", col, header)
			}
		}
	})
}

// TestFaultReport reads the recovery summary off a fault-injected run:
// one crash with recovery, one without, and retried attempts.
func TestFaultReport(t *testing.T) {
	plan := &fault.Plan{
		Seed:     3,
		FailProb: 0.05,
		Crashes: []fault.Crash{
			{Machine: 0, DownAt: 100, UpAt: 400},
			{Machine: 2, DownAt: 300},
		},
		Retry: fault.RetryPolicy{MaxAttempts: 3, Backoff: 5, BackoffFactor: 2, MaxBackoff: 60},
	}
	s, tasks := mibs(t), genTasks(17, 80, 20)
	runs := simobs.New(simobs.Options{Trace: true})
	eng, err := sim.NewEngine(sim.Config{Machines: 4, Scheduler: s, Table: table(t), Faults: plan,
		Observer: runs.Observer("faults", s.Name(), 4, tasks)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runs.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	traces, err := obs.ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	run := traces[0]
	rep := run.Faults()
	if rep.Empty() || rep.Counts["machine_down"] != 2 || rep.Counts["machine_up"] != 1 {
		t.Fatalf("fault counts %v", rep.Counts)
	}
	if rep.Counts["retry"] != res.Retries || rep.RetriedTasks == 0 || rep.LostTasks != res.Lost {
		t.Fatalf("retries %d (%d tasks), lost %d tasks; the run retried %d and lost %d",
			rep.Counts["retry"], rep.RetriedTasks, rep.LostTasks, res.Retries, res.Lost)
	}
	last := run.Events[len(run.Events)-1].T
	if len(rep.Downtimes) != 2 || rep.Downtimes[0] != (obs.MachineDowntime{Machine: 0, Downs: 1, Downtime: 300}) ||
		rep.Downtimes[1] != (obs.MachineDowntime{Machine: 2, Downs: 1, Downtime: last - 300}) {
		t.Fatalf("downtimes %+v (trace ends at %v)", rep.Downtimes, last)
	}
	var text bytes.Buffer
	run.Summarize(&text, 3)
	for _, want := range []string{"fault injection & recovery:", "machine 0    1 crash(es), 300.0s down", "tasks retried:"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, text.String())
		}
	}
}
