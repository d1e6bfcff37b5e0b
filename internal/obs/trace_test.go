package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"tracon/internal/sched"
	"tracon/internal/sim"
)

// Total returns the number of events emitted (dropped ones included).
func (t *Tracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// flush feeds the tracer one OnFlush event at time now.
func flush(tr *Tracer, now float64) {
	tr.Observe(sim.View{}, sim.Event{Kind: sim.OnFlush, Now: now})
}

// runTraced executes one MIBS run with the given tracer attached.
func runTraced(t *testing.T, tr sim.Observer, seed int64, n int) *sim.Results {
	t.Helper()
	s := &sched.MIBS{Scorer: sched.NewScorer(oracle(t), sched.MinRuntime), QueueLen: 6}
	eng, err := sim.NewEngine(sim.Config{Machines: 4, Scheduler: s, Table: table(t), Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(genTasks(seed, n, 20), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTracerRingDrop(t *testing.T) {
	tr := NewTracer("ring", "fifo", 1, 8)
	for i := 0; i < 20; i++ {
		flush(tr, float64(i))
	}
	if tr.Total() != 20 {
		t.Fatalf("total %d, want 20", tr.Total())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped %d, want 12", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := int64(12 + i); ev.Seq != want || ev.T != float64(want) {
			t.Fatalf("event %d: seq=%d t=%v, want seq=%d (oldest first)", i, ev.Seq, ev.T, want)
		}
	}
}

func TestTracerNoDropUnderCap(t *testing.T) {
	tr := NewTracer("small", "fifo", 1, 8)
	flush(tr, 1)
	flush(tr, 2)
	if tr.Dropped() != 0 || tr.Total() != 2 || len(tr.Events()) != 2 {
		t.Fatalf("dropped=%d total=%d events=%d", tr.Dropped(), tr.Total(), len(tr.Events()))
	}
}

func TestTraceNDJSONRoundTrip(t *testing.T) {
	tr := NewTracer("roundtrip", "MIBS6-RT", 4, 0)
	res := runTraced(t, tr, 9, 60)

	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadTraces(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("parsed %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.Label != "roundtrip" || r.Scheduler != "MIBS6-RT" || r.Machines != 4 {
		t.Fatalf("header mismatch: %+v", r)
	}
	if r.Dropped != 0 || r.Total != int64(len(r.Events)) {
		t.Fatalf("header counts: total=%d dropped=%d events=%d", r.Total, r.Dropped, len(r.Events))
	}
	if !reflect.DeepEqual(r.Events, tr.Events()) {
		t.Fatal("events did not survive the NDJSON round trip")
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
	plain := runTraced(t, nil, 13, 80)
	traced := runTraced(t, NewTracer("x", "s", 4, 128), 13, 80)
	if plain.CompletedCount != traced.CompletedCount ||
		plain.TotalRuntime != traced.TotalRuntime ||
		plain.Horizon != traced.Horizon ||
		plain.TotalIOPS != traced.TotalIOPS {
		t.Fatalf("tracer perturbed results:\nplain  %+v\ntraced %+v", plain, traced)
	}
}

func TestPerfettoExport(t *testing.T) {
	tr := NewTracer("perfetto", "MIBS6-RT", 4, 0)
	runTraced(t, tr, 21, 40)
	var buf bytes.Buffer
	run := &RunTrace{
		Label: tr.label, Scheduler: tr.scheduler, Machines: tr.machines,
		Total: tr.Total(), Dropped: tr.Dropped(), Events: tr.Events(),
	}
	if err := WritePerfetto(&buf, run); err != nil {
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
	tr := NewTracer("spans", "MIBS6-RT", 4, 0)
	res := runTraced(t, tr, 31, 70)
	run := &RunTrace{Label: tr.label, Total: tr.Total(), Events: tr.Events()}

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

	apps := AppBreakdowns(spans)
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

	top := TopWaits(spans, 5)
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
	tr := NewTracer("machines", "MIBS6-RT", 4, 0)
	runTraced(t, tr, 41, 60)
	run := &RunTrace{Events: tr.Events()}
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

	tr := NewTracer("dag", "FIFO", 1, 0)
	eng, err := sim.NewEngine(sim.Config{Machines: 1, Scheduler: sched.FIFO{}, Table: table(t), Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount != 3 {
		t.Fatalf("completed %d, want 3", res.CompletedCount)
	}
	run := &RunTrace{Events: tr.Events()}
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
	run.Label, run.Scheduler, run.Machines = "dag", "FIFO", 1
	run.Summarize(&buf, 3)
	for _, want := range []string{"per-app breakdown", "critical path (3 hops)", "via dependency", "per-machine contention"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

func TestTraceCollectorCollisions(t *testing.T) {
	c := NewTraceCollector(16)
	a := c.Tracer("same", "s", 1)
	b := c.Tracer("same", "s", 1)
	if c.Collisions() != 1 || c.Len() != 2 {
		t.Fatalf("collisions=%d len=%d", c.Collisions(), c.Len())
	}
	if a.label == b.label {
		t.Fatal("duplicate labels not disambiguated")
	}
	flush(a, 1)
	flush(b, 2)
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("exported %d runs, want 2", len(runs))
	}
	if runs[0].Label >= runs[1].Label {
		t.Fatal("export not sorted by label")
	}
}

func TestFindRuns(t *testing.T) {
	runs := []*RunTrace{{Label: "static/FIFO"}, {Label: "dynamic/MIBS8-RT"}}
	if got := FindRuns(runs, ""); len(got) != 2 {
		t.Fatalf("empty filter returned %d", len(got))
	}
	if got := FindRuns(runs, "MIBS"); len(got) != 1 || got[0].Label != "dynamic/MIBS8-RT" {
		t.Fatalf("filter MIBS returned %+v", got)
	}
	if got := FindRuns(runs, "nope"); len(got) != 0 {
		t.Fatalf("filter nope returned %d", len(got))
	}
}

func TestHistogramQuantile(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if q := NewHistogram([]float64{1, 2}).Snapshot().Quantile(0.5); q != 0 {
			t.Fatalf("empty histogram p50 = %v", q)
		}
	})
	t.Run("single-bucket", func(t *testing.T) {
		h := NewHistogram([]float64{10})
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
		h := NewHistogram([]float64{1})
		h.Observe(5)
		h.Observe(50)
		// The histogram cannot see past its last bound; the estimate
		// saturates there.
		if q := h.Snapshot().Quantile(0.5); q != 1 {
			t.Fatalf("overflow p50 = %v, want last bound 1", q)
		}
	})
	t.Run("interpolation", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2, 4})
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
		h := NewHistogram([]float64{1})
		h.Observe(0.5)
		if h.Snapshot().Quantile(-3) != h.Snapshot().Quantile(0) || h.Snapshot().Quantile(7) != h.Snapshot().Quantile(1) {
			t.Fatal("q not clamped to [0,1]")
		}
	})
	t.Run("csv-surfaced", func(t *testing.T) {
		joined := strings.Join(csvHeader, ",")
		for _, col := range []string{"queue_p50", "queue_p95", "queue_p99"} {
			if !strings.Contains(joined, col) {
				t.Fatalf("csv header missing %s: %s", col, joined)
			}
		}
	})
}
