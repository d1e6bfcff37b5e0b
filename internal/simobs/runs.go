// Package simobs observes the simulator's runs: per-run metrics
// (SimStats), a bounded per-task lifecycle trace recorded in the trace
// schema of package obs, and an invariant auditor (InvariantAuditor) that
// validates the engine's consistency as it runs. Runs attaches the ones
// asked for to every run of an experiment sweep and writes their exports.
package simobs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/sim"
)

// Options selects the observers Runs attaches to every run; the fields
// mirror traconbench's -metrics, -trace, -trace-cap, -audit and
// -audit-every.
type Options struct {
	// Metrics collects a SimStats per run.
	Metrics bool
	// Trace records each run into a ring of TraceCap events
	// (<= 0 takes obs.DefaultTraceCap).
	Trace    bool
	TraceCap int
	// Audit attaches an InvariantAuditor per run, scanning the full state
	// once in AuditEvery events (InvariantAuditor.Every).
	Audit      bool
	AuditEvery int
}

// Runs is the observer set of an experiment sweep: for every simulation
// run it holds the metrics, trace and auditor Options asks for, under the
// run's input-derived label (RunLabel). Runs from parallel workers may
// register concurrently; the exports are read after the sweep and list
// runs in label order, so they are identical at every worker count.
//
// Labels must be unique per run. A duplicate label gets its own observers
// under a disambiguated name ("<label>!dup<n>") and counts as a
// collision, because mixing two engines' events in one record would make
// the exports depend on worker scheduling.
type Runs struct {
	opts       Options
	mu         sync.Mutex
	runs       map[string]*run
	collisions int
}

// New returns an empty set attaching the observers opts selects.
func New(opts Options) *Runs {
	return &Runs{opts: opts, runs: map[string]*run{}}
}

// run is one simulation run's observers; it is the sim.Observer its
// engine reports to, and hands each event to them in turn.
type run struct {
	label string
	stats *SimStats
	trace *obs.Tracer
	audit *InvariantAuditor
}

// Observe implements sim.Observer. The auditor goes last, so an event
// that fails the audit is still in the metrics and the trace.
func (r *run) Observe(v sim.View, ev *sim.Event) error {
	if r.stats != nil {
		r.stats.Observe(v, ev)
	}
	if r.trace != nil {
		trace(r.trace, v, ev)
	}
	if r.audit != nil {
		return r.audit.Observe(v, ev)
	}
	return nil
}

// Observer registers one run and returns its observer. It has the
// signature of experiments.ObserverFactory, so a sweep attaches the set
// with env.Observe = runs.Observer.
func (s *Runs) Observer(kind, scheduler string, machines int, tasks []sched.Task) sim.Observer {
	label := RunLabel(kind, scheduler, machines, tasks)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.runs[label]; dup {
		s.collisions++
		label = fmt.Sprintf("%s!dup%d", label, s.collisions)
	}
	r := &run{label: label}
	if s.opts.Metrics {
		r.stats = NewSimStats(label)
	}
	if s.opts.Trace {
		r.trace = obs.NewTracer(label, scheduler, machines, s.opts.TraceCap)
	}
	if s.opts.Audit {
		r.audit = &InvariantAuditor{Every: s.opts.AuditEvery}
	}
	s.runs[label] = r
	return r
}

// Len returns the number of runs registered.
func (s *Runs) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Collisions returns how many duplicate labels were seen; a non-zero value
// means labels were not input-unique and the exports are not
// deterministic.
func (s *Runs) Collisions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.collisions
}

// sorted returns the runs in label order.
func (s *Runs) sorted() []*run {
	s.mu.Lock()
	out := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, r)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// Metrics renders every run's statistics in label order (empty without
// Options.Metrics).
func (s *Runs) Metrics() []RunStats {
	out := []RunStats{}
	for _, r := range s.sorted() {
		if r.stats != nil {
			out = append(out, r.stats.Snapshot())
		}
	}
	return out
}

// WriteMetricsJSON writes the full per-run statistics as indented JSON.
func (s *Runs) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Metrics())
}

// csvHeader is the flat per-run summary schema (documented in README.md).
var csvHeader = []string{
	"label", "scheduler", "machines", "slots", "completed", "submitted",
	"horizon_s", "energy_j", "mean_runtime_s", "mean_wait_s",
	"slot_utilization", "mean_queue_len", "max_queue_len",
	"queue_p50", "queue_p95", "queue_p99",
	"max_event_heap", "pops_total", "pops_any", "sched_calls", "sched_placed",
	"mean_abs_rel_err",
}

// WriteMetricsCSV writes a flat one-row-per-run summary.
func (s *Runs) WriteMetricsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, r := range s.Metrics() {
		// Overall mean |rel err| weighted by per-app counts.
		var n int64
		var sum float64
		for _, a := range r.PerApp {
			n += a.N
			sum += a.MeanAbsRelErr * float64(a.N)
		}
		overall := 0.0
		if n > 0 {
			overall = round9(sum / float64(n))
		}
		row := []string{
			r.Label, r.Scheduler, strconv.Itoa(r.Machines), strconv.Itoa(r.Slots),
			strconv.Itoa(r.Completed), strconv.Itoa(r.Submitted),
			f(r.Horizon), f(r.EnergyJ), f(r.MeanRuntime), f(r.MeanWait),
			f(r.SlotUtilization), f(r.MeanQueueLen), strconv.Itoa(r.MaxQueueLen),
			f(r.QueueP50), f(r.QueueP95), f(r.QueueP99),
			strconv.Itoa(r.MaxEventHeap), d(r.PopsTotal), d(r.PopsAny), d(r.SchedCalls), d(r.SchedPlaced),
			f(overall),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteNDJSON writes every traced run in label order, each as obs.Tracer
// writes it: a header line, then one JSON object per retained event.
func (s *Runs) WriteNDJSON(w io.Writer) error {
	for _, r := range s.sorted() {
		if r.trace == nil {
			continue
		}
		if err := r.trace.WriteNDJSON(w); err != nil {
			return err
		}
	}
	return nil
}

// Violations returns the number of invariant violations the auditors
// found across all runs.
func (s *Runs) Violations() int64 {
	var n int64
	for _, r := range s.sorted() {
		if r.audit != nil {
			n += r.audit.Total()
		}
	}
	return n
}

// WriteAudit writes one "<label> <summary>" line per audited run in label
// order (a summary with violations runs on over further lines).
func (s *Runs) WriteAudit(w io.Writer) error {
	for _, r := range s.sorted() {
		if r.audit == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", r.label, r.audit.Summary()); err != nil {
			return err
		}
	}
	return nil
}

// ExportMetrics writes metrics_<tag>.json and metrics_<tag>.csv under dir,
// creating dir if needed.
func (s *Runs) ExportMetrics(dir, tag string) (jsonPath, csvPath string, err error) {
	if jsonPath, err = export(dir, "metrics_"+tag+".json", s.WriteMetricsJSON); err != nil {
		return "", "", err
	}
	if csvPath, err = export(dir, "metrics_"+tag+".csv", s.WriteMetricsCSV); err != nil {
		return "", "", err
	}
	return jsonPath, csvPath, nil
}

// ExportTrace writes trace_<tag>.ndjson under dir, creating dir if needed.
func (s *Runs) ExportTrace(dir, tag string) (string, error) {
	return export(dir, "trace_"+tag+".ndjson", s.WriteNDJSON)
}

// export creates dir/name and fills it with write.
func export(dir, name string, write func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
