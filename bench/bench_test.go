package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The self-tests are fast (the package runs in a few seconds). The one slow
// test, a 1/50-scale run of all six workloads against the real binary, is
// behind a flag: go test -C bench -run TestSmoke -smoke .
var smoke = flag.Bool("smoke", false, "run every workload end to end at 1/50 scale")

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25], and
// for [3, 1, 4, 1, 5, 9, 2, 6] it is [1.25, 3.5, 5.75].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles = %v, %v, want 1.25, 5.75", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSegmentStatistics(t *testing.T) {
	// One bad fifth must not move the reported p99 or rate.
	mk := func(bad bool) latencies {
		l := make(latencies, 10000)
		for i := range l {
			l[i] = time.Duration(100+i%100) * time.Microsecond
			if bad && i >= 8000 {
				l[i] *= 50
			}
		}
		return l
	}
	good := segmentQuantile([]latencies{mk(false), mk(false)}, 0.99)
	withBad := segmentQuantile([]latencies{mk(true), mk(true)}, 0.99)
	if good != withBad {
		t.Errorf("p99 moved from %v to %v because of one bad slice", good, withBad)
	}
	at := make(latencies, 0, 900)
	for i := 0; i < 800; i++ { // 200/s for four seconds, then a stall
		at = append(at, time.Duration(i)*5*time.Millisecond)
	}
	if got := segmentRate(at, 5*time.Second); math.Abs(got-200) > 1 {
		t.Errorf("segmentRate = %v, want 200", got)
	}
	five := []float64{5, 1, 4, 2, 3}
	if lo, hi := secondBest(five, false), secondBest(five, true); lo != 2 || hi != 4 {
		t.Errorf("secondBest = %v and %v, want 2 and 4", lo, hi)
	}
}

func TestPoissonSchedule(t *testing.T) {
	const n, rate = 40000, 2000.0
	a, b := poissonSchedule(7, n, rate), poissonSchedule(7, n, rate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, n, rate)) {
		t.Fatal("two seeds gave the same schedule")
	}
	for i := 1; i < n; i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
	got := float64(n) / a[n-1].Seconds()
	if math.Abs(got-rate)/rate > 0.02 {
		t.Errorf("realised rate %.1f/s, want %v within 2%%", got, rate)
	}
}

func TestGenTasksDeterministic(t *testing.T) {
	a, b := genTasks(3, 5000, 8, 2000), genTasks(3, 5000, 8, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two op streams")
	}
	if reflect.DeepEqual(a, genTasks(4, 5000, 8, 2000)) {
		t.Fatal("two seeds gave the same op stream")
	}
	reads := [clients]int{}
	var sum float64
	for i, tk := range a {
		if tk.app < 0 || tk.app >= 8 {
			t.Fatalf("task %d: app %d out of range", i, tk.app)
		}
		if tk.read {
			reads[i%clients]++
		}
		sum += tk.noise
	}
	if reads[0] != reads[1] || reads[0] != 5000/clients/readEvery {
		t.Errorf("reads per client %v, want %d each", reads, 5000/clients/readEvery)
	}
	if mean := sum / 5000; math.Abs(mean-1) > 0.005 {
		t.Errorf("mean runtime noise %v, want 1", mean)
	}
}

func TestTaskCounts(t *testing.T) {
	for _, w := range workloads {
		if w.kind == simulated {
			continue
		}
		n := w.taskCount(10)
		if n%(clients*readEvery) != 0 || (w.kind == closedBatch && n%(clients*batchSize) != 0) {
			t.Errorf("%s: %d tasks do not divide over clients and batches", w.name, n)
		}
		if math.Abs(float64(n)-w.perSecond*10) > clients*batchSize {
			t.Errorf("%s: %d tasks for 10 s at %v/s", w.name, n, w.perSecond)
		}
		if w.taskCount(0.001) <= 0 {
			t.Errorf("%s: no tasks for a tiny run", w.name)
		}
	}
	if got := walMaxBytes(20000); got != 4<<20 {
		t.Errorf("walMaxBytes(20000) = %d, want 4 MiB", got)
	}
}

// fakeDaemon answers the three task calls the way tracond does, and can be
// told to stall.
type fakeDaemon struct {
	next    atomic.Int64
	stallAt int64 // the stallAt-th and the following request sleep for stall
	stall   time.Duration
	seen    atomic.Int64
}

func (f *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n := f.seen.Add(1); f.stall > 0 && (n == f.stallAt || n == f.stallAt+1) {
		time.Sleep(f.stall)
	}
	id := "t-1"
	if r.Method == "POST" && r.URL.Path == "/v1/tasks" {
		id = fmt.Sprintf("t-%d", f.next.Add(1))
	} else if parts := strings.Split(r.URL.Path, "/"); len(parts) > 3 {
		id = parts[3]
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"id":%q,"status":"placed","predicted_runtime_s":100,"predicted_iops":50}`+"\n", id)
}

// A server that stalls both connections for 50 ms while arrivals keep
// falling due must show up in many submits' latencies, not in two: the
// calls that waited for a connection are timed from when they were due.
func TestOpenLoopCountsTheStall(t *testing.T) {
	fake := &fakeDaemon{stallAt: 100, stall: 50 * time.Millisecond}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	const n, rate = 400, 1000.0
	tasks := genTasks(1, n, 1, rate)
	tally := runOpen(srv.URL, []string{"app"}, tasks)
	if tally.failed != 0 || tally.completed != n {
		t.Fatalf("%d failed, %d of %d completed: %v", tally.failed, tally.completed, n, tally.firstErr)
	}
	slow := 0
	for _, d := range tally.submit {
		if d > 10*time.Millisecond {
			slow++
		}
	}
	// About 40 arrivals fall due in the 40 ms after the first 10 ms of the
	// stall; a generator that waited before timing would report 2.
	if slow < 20 {
		t.Errorf("%d submits over 10 ms; the 50 ms stall of both connections should have delayed at least 20", slow)
	}
	if len(tally.lateness) == 0 {
		t.Error("no generator lateness recorded")
	}
}

func TestClosedLoopExactlyOnce(t *testing.T) {
	fake := &fakeDaemon{}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	tasks := genTasks(2, 200, 1, 0)
	tally := runClosedSingle(srv.URL, []string{"app"}, tasks, func(i int) string { return fmt.Sprint("r", i) })
	if tally.failed != 0 || tally.completed != len(tasks) || len(tally.acked) != len(tasks) {
		t.Errorf("failed %d completed %d acked %d of %d", tally.failed, tally.completed, len(tally.acked), len(tasks))
	}
	if len(tally.read) != len(tasks)/readEvery {
		t.Errorf("%d reads, want %d", len(tally.read), len(tasks)/readEvery)
	}
	if len(tally.parts) != clients || len(tally.doneAt) != len(tasks) {
		t.Errorf("%d parts, %d completion stamps", len(tally.parts), len(tally.doneAt))
	}
	seen := map[string]bool{}
	for i, id := range tally.acked {
		if seen[id] || tally.reqIDs[i] == "" {
			t.Fatalf("acknowledged ID %s twice, or without its request ID", id)
		}
		seen[id] = true
	}
}

func TestLadderArithmetic(t *testing.T) {
	l := ladder{wire: 130, handler: 40, placer: 25, sched: 3, durable: 15}
	const client = 200.0
	self := l.selfTimes(client)
	var all, explained float64
	for layer, v := range self {
		all += v
		if layer != "unexplained" {
			explained += v
		}
	}
	if math.Abs(all-client) > 1e-9 {
		t.Errorf("self times sum to %v, want the client's %v", all, client)
	}
	if math.Abs(explained-l.top()) > 1e-9 {
		t.Errorf("explained self times sum to %v, want the ladder's top %v", explained, l.top())
	}
	if self["serve.placer"] != 25-3-15 || self["serve.http"] != 15 || self["transport"] != 130 {
		t.Errorf("self times %v", self)
	}
	for _, layer := range budgetLayers[:6] {
		if _, ok := self[layer]; !ok {
			t.Errorf("no self time for %s", layer)
		}
	}
}

func TestRecorder(t *testing.T) {
	primed := 0
	rec := newRecorder(true)
	rec.prime = func() { primed++ }
	rec.do("placer", "submit", 7, func() { time.Sleep(time.Millisecond) })
	rec.add("durable", "submit", 7, 300*time.Microsecond, 2)
	if primed != 1 || len(rec.spans) != 2 {
		t.Fatalf("primed %d times, %d spans", primed, len(rec.spans))
	}
	s := rec.spans[0]
	if s.Name != "placer" || s.Parent != "handler" || s.Op != 7 || s.End-s.Start < int64(time.Millisecond) {
		t.Errorf("span %+v", s)
	}
	d := rec.spans[1]
	if d.Parent != "placer" || d.End-d.Start != int64(300*time.Microsecond) || d.Calls != 2 {
		t.Errorf("span %+v", d)
	}
	if us, n := medianUS(rec.spans, "durable", "submit"); us != 300 || n != 1 {
		t.Errorf("medianUS = %v over %d", us, n)
	}
	off := newRecorder(false)
	ran := false
	off.do("placer", "submit", 0, func() { ran = true })
	off.add("durable", "submit", 0, time.Millisecond, 1)
	if !ran || len(off.spans) != 0 {
		t.Errorf("recorder switched off: ran=%v, %d spans", ran, len(off.spans))
	}
	path := t.TempDir() + "/spans.ndjson"
	if err := writeSpans(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(b, []byte("\n")); lines != 2 {
		t.Errorf("%d NDJSON lines, want 2", lines)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	noisy := func(v float64) []float64 { return []float64{v * 0.8, v * 1.2, v, v * 0.85, v * 1.15} }
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"slower latency", steady(100), steady(115), "lower", 0.10, verdictRegressed},
		{"within bound", steady(100), steady(105), "lower", 0.10, verdictUnchanged},
		{"faster latency", steady(100), steady(80), "lower", 0.10, verdictUnchanged},
		{"lower throughput", steady(1000), steady(900), "higher", 0.05, verdictRegressed},
		{"higher throughput", steady(1000), steady(1100), "higher", 0.05, verdictUnchanged},
		{"too noisy to call", noisy(100), noisy(103), "lower", 0.10, verdictUnresolved},
		{"noisy but far worse", noisy(100), noisy(180), "lower", 0.10, verdictRegressed},
		{"single runs", []float64{100}, []float64{120}, "lower", 0.10, verdictRegressed},
	} {
		if got, _ := judge(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricSpec{{Name: "submit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "steady-8m"})
	file := func(v float64, failed int) *resultFile {
		r := &result{Workload: "steady-8m", Attempted: 10, Failed: failed}
		r.add("submit_p50_ms", "ms", v, 100)
		return &resultFile{Runs: []*result{r}}
	}
	var out bytes.Buffer
	if n := compareFiles(&out, spec, file(1, 0), file(1.05, 0)); n != 0 {
		t.Errorf("%d regressions for +5%% under a 10%% bound:\n%s", n, &out)
	}
	if n := compareFiles(&out, spec, file(1, 0), file(1.2, 0)); n != 1 {
		t.Errorf("%d regressions for +20%%, want 1", n)
	}
	if n := compareFiles(&out, spec, file(1, 0), file(1, 3)); n != 1 {
		t.Errorf("%d regressions for a run with failed ops, want 1", n)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The names and units the program emits are the lists in BENCHMARK.json.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readBenchmarkSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, code []metric, listed []metricSpec) {
		if len(code) != len(listed) {
			t.Errorf("%s: the program emits %d metrics, BENCHMARK.json lists %d", kind, len(code), len(listed))
		}
		seen := map[string]bool{}
		for i, m := range code {
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("%s: %s listed twice", kind, m.name)
			}
			seen[m.name] = true
			if i < len(listed) && (listed[i].Name != m.name || listed[i].Unit != m.unit) {
				t.Errorf("%s #%d: program has %s [%s], BENCHMARK.json %s [%s]", kind, i, m.name, m.unit, listed[i].Name, listed[i].Unit)
			}
		}
		for _, l := range listed {
			if l.Better != "lower" && l.Better != "higher" {
				t.Errorf("%s: %s: better=%q", kind, l.Name, l.Better)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	haveSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload #%d: %q in the program, %q in BENCHMARK.json (or their reasons differ)", i, w.name, spec.Workloads[i].Name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.name)
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

func TestContractLine(t *testing.T) {
	res := &result{Workload: "steady-8m", Attempted: 100}
	for i, m := range endToEnd {
		res.add(m.name, m.unit, float64(i)+0.5, 10)
	}
	res.add("loadgen.extra", "ms", 1, 1) // advisory rows are printed but not in the line
	var out bytes.Buffer
	if err := printResult(&out, res, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 {
		t.Errorf("contract line has keys %v", line)
	}
	var got contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 100 || got.Failed != 0 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("contract line %+v", got)
	}
	if !strings.Contains(out.String(), "failed_ops_share") {
		t.Error("failed_ops_share not printed")
	}

	res.check(false, "a check failed")
	out.Reset()
	if err := printResult(&out, res, endToEnd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), "CHECK FAILED: a check failed") {
		t.Errorf("failed check not reported:\n%s", &out)
	}

	res.Rows[0].Unit = "ms"
	if err := printResult(&out, res, endToEnd); err == nil {
		t.Error("a row in the wrong unit was accepted")
	}
	if err := printResult(&out, &result{Workload: "x"}, endToEnd); err == nil {
		t.Error("a run without its metrics was accepted")
	}
}

func TestProcReaders(t *testing.T) {
	cpu, err := procCPU(os.Getpid())
	if err != nil || cpu < 0 {
		t.Errorf("procCPU: %v, %v", cpu, err)
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("procPeakRSS: %v, %v", rss, err)
	}
}

func TestBadArguments(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}, {"compare", "one.json"}, {"aa", "-sets", "1"},
	} {
		if code := realMain(args, &out); code == 0 {
			t.Errorf("bench %v exited 0", args)
		}
	}
}

// TestSmoke runs every workload end to end against the real binary at 1/50
// scale, untraced, and checks that each prints its contract line with every
// output check passing.
func TestSmoke(t *testing.T) {
	if !*smoke {
		t.Skip("slow (~40 s); run with -smoke")
	}
	defer runCleanups()
	for _, w := range workloads {
		var out bytes.Buffer
		if code := realMain([]string{"-short", "-workload", w.name, "-seconds", "10"}, &out); code != 0 {
			t.Fatalf("%s: exit %d\n%s", w.name, code, &out)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !line.Correct || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %+v", w.name, line)
		}
		for name, m := range line.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, m.Value)
			}
		}
	}
}
