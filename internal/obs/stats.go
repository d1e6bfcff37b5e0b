package obs

import (
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"tracon/internal/sched"
	"tracon/internal/sim"
)

// SimStats is a per-run statistics collector implementing sim.Observer.
// It integrates time-weighted state (queue length, busy slots) between
// events, tracks heap high-water marks, accumulates per-application
// realized-vs-predicted interference error, and times scheduler decisions.
//
// Every number except scheduler wall-clock latency is a pure function of
// the simulated run, so exports with wall latency excluded are
// byte-identical no matter how many workers executed the experiment suite.
type SimStats struct {
	mu sync.Mutex

	// Label identifies the run in exports; it must be derived from run
	// inputs (not creation order) to keep exports deterministic.
	Label string

	// Timeline sampling: queue length recorded on change, downsampled by
	// stride doubling once the cap is hit so memory stays bounded and the
	// kept points are a deterministic subset.
	timeline  []TimelinePoint
	stride    int
	changes   int64
	lastQueue int

	// Time-weighted integrals over [firstEvent, lastEvent].
	started       bool
	prevTime      float64
	prevBusy      int
	prevQueue     int
	busyIntegral  float64 // busy-slot-seconds
	queueIntegral float64 // queued-task-seconds
	span          float64

	queueHist *Histogram

	events   map[string]int64
	maxQueue int

	maxEventHeap    int
	maxGlobalHeap   int
	maxCategoryHeap int

	popsTotal int64
	popsAny   int64

	perApp map[string]*appAcc

	schedCalls  int64
	schedPlaced int64
	schedWall   time.Duration

	machines   int
	totalSlots int

	final *sim.Results
}

type appAcc struct {
	n            int64
	sumAbsRelErr float64
	sumRelErr    float64
	sumPredicted float64
	sumRealized  float64
}

// TimelinePoint is one (time, queue-length) sample.
type TimelinePoint struct {
	T float64 `json:"t"`
	Q int     `json:"q"`
}

// timelineCap bounds the per-run timeline; when full, every other point is
// dropped and the sampling stride doubles.
const timelineCap = 2048

// NewSimStats returns a collector for one run.
func NewSimStats(label string) *SimStats {
	return &SimStats{
		Label:     label,
		stride:    1,
		queueHist: NewHistogram(ExpBuckets(1, 2, 14)), // 1..8192 then overflow
		events:    map[string]int64{},
		perApp:    map[string]*appAcc{},
		lastQueue: -1,
	}
}

// Observe implements sim.Observer. A processed event integrates the
// previous state up to now and snapshots the new one; completions
// accumulate realized-vs-predicted interference error per app; pops,
// decisions and the run's end feed their counters.
func (s *SimStats) Observe(v sim.View, ev sim.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case sim.OnStep:
		s.step(v, ev.Step, ev.Now)
	case sim.OnComplete:
		s.complete(ev.Complete)
	case sim.OnPop:
		s.popsTotal++
		if ev.Pop.Category == sched.AnyCategory {
			s.popsAny++
		}
	case sim.OnDecision:
		s.schedCalls++
		s.schedPlaced += int64(ev.Decision.Placed)
		s.schedWall += ev.Decision.Wall
	case sim.OnDone:
		s.final = ev.Results
	}
	return nil
}

// step integrates the previous state up to now and snapshots the new one.
func (s *SimStats) step(v sim.View, kind sim.EventKind, now float64) {
	if s.machines == 0 {
		s.machines = v.Machines()
		s.totalSlots = v.TotalSlots()
	}
	if s.started {
		if dt := now - s.prevTime; dt > 0 {
			s.busyIntegral += float64(s.prevBusy) * dt
			s.queueIntegral += float64(s.prevQueue) * dt
			s.span += dt
		}
	}
	// Crashed machines' slots are neither free nor busy; excluding them
	// keeps utilization honest during downtime (DownMachines is zero in
	// fault-free runs).
	busy := v.TotalSlots() - v.FreeSlots() - v.DownMachines()*(v.TotalSlots()/v.Machines())
	if busy < 0 {
		busy = 0
	}
	q := v.Backlog()
	s.prevTime, s.prevBusy, s.prevQueue, s.started = now, busy, q, true

	s.events[kind.String()]++
	s.queueHist.Observe(float64(q))
	if q > s.maxQueue {
		s.maxQueue = q
	}
	if q != s.lastQueue {
		s.lastQueue = q
		s.changes++
		if (s.changes-1)%int64(s.stride) == 0 {
			s.timeline = append(s.timeline, TimelinePoint{T: now, Q: q})
			if len(s.timeline) >= timelineCap {
				kept := s.timeline[:0]
				for i := 0; i < len(s.timeline); i += 2 {
					kept = append(kept, s.timeline[i])
				}
				s.timeline = kept
				s.stride *= 2
			}
		}
	}
	if n := v.EventHeapLen(); n > s.maxEventHeap {
		s.maxEventHeap = n
	}
	ps := v.PoolStats()
	if ps.GlobalHeapLen > s.maxGlobalHeap {
		s.maxGlobalHeap = ps.GlobalHeapLen
	}
	if ps.CategoryHeapLen > s.maxCategoryHeap {
		s.maxCategoryHeap = ps.CategoryHeapLen
	}
}

// complete accumulates realized-vs-predicted interference error per app.
func (s *SimStats) complete(c sim.Completion) {
	app := c.Record.Task.App
	acc := s.perApp[app]
	if acc == nil {
		acc = &appAcc{}
		s.perApp[app] = acc
	}
	realized := c.Record.Runtime()
	acc.n++
	acc.sumPredicted += c.Predicted
	acc.sumRealized += realized
	if c.Predicted > 0 {
		rel := (realized - c.Predicted) / c.Predicted
		acc.sumRelErr += rel
		if rel < 0 {
			rel = -rel
		}
		acc.sumAbsRelErr += rel
	}
}

// AppError is the exported per-application prediction-error summary.
type AppError struct {
	App string `json:"app"`
	N   int64  `json:"n"`
	// MeanAbsRelErr is mean |realized−predicted|/predicted — the
	// interference-prediction error realized by the engine, the analogue of
	// the modeling-error metric the paper reports for TRACON's models.
	MeanAbsRelErr float64 `json:"mean_abs_rel_err"`
	// MeanRelErr keeps the sign: positive when tasks run longer than their
	// placement-time forecast (neighbour churn added interference).
	MeanRelErr    float64 `json:"mean_rel_err"`
	MeanPredicted float64 `json:"mean_predicted_s"`
	MeanRealized  float64 `json:"mean_realized_s"`
}

// FaultStats is the exported fault-recovery summary of one run.
type FaultStats struct {
	// FailedAttempts, Timeouts and Evictions count attempts ended by
	// probabilistic failure, per-attempt deadline and machine crash.
	FailedAttempts int `json:"failed_attempts"`
	Timeouts       int `json:"timeouts"`
	Evictions      int `json:"evictions"`
	// Retries counts re-placements scheduled; Lost counts tasks abandoned
	// after exhausting their attempt budget.
	Retries int `json:"retries"`
	Lost    int `json:"lost"`
	// MachineDowns and MachineUps count crash/recover transitions.
	MachineDowns int `json:"machine_downs"`
	MachineUps   int `json:"machine_ups"`
}

// RunStats is the exportable snapshot of one run. All fields are
// deterministic for a fixed simulation except SchedWallMS, which Snapshot
// omits unless asked for.
type RunStats struct {
	Label     string `json:"label"`
	Scheduler string `json:"scheduler"`
	Machines  int    `json:"machines"`
	Slots     int    `json:"slots"`

	Completed int     `json:"completed"`
	Submitted int     `json:"submitted"`
	Horizon   float64 `json:"horizon_s"`
	EnergyJ   float64 `json:"energy_j"`

	MeanRuntime float64 `json:"mean_runtime_s"`
	MeanWait    float64 `json:"mean_wait_s"`

	SlotUtilization float64 `json:"slot_utilization"`
	MeanQueueLen    float64 `json:"mean_queue_len"`
	MaxQueueLen     int     `json:"max_queue_len"`

	// QueueP50/P95/P99 are event-weighted queue-length quantiles estimated
	// from QueueHist by linear interpolation within buckets.
	QueueP50 float64 `json:"queue_p50"`
	QueueP95 float64 `json:"queue_p95"`
	QueueP99 float64 `json:"queue_p99"`

	Events        map[string]int64  `json:"events"`
	QueueHist     HistogramSnapshot `json:"queue_hist"`
	QueueTimeline []TimelinePoint   `json:"queue_timeline"`

	MaxEventHeap    int `json:"max_event_heap"`
	MaxGlobalHeap   int `json:"max_pool_global_heap"`
	MaxCategoryHeap int `json:"max_pool_category_heap"`

	PopsTotal int64 `json:"pops_total"`
	PopsAny   int64 `json:"pops_any"`

	PerApp []AppError `json:"per_app"`

	// Faults summarizes fault-injection recovery; nil (and absent from the
	// JSON) in fault-free runs, so existing exports are byte-unchanged.
	Faults *FaultStats `json:"faults,omitempty"`

	SchedCalls  int64 `json:"sched_calls"`
	SchedPlaced int64 `json:"sched_placed"`
	// SchedWallMS is scheduler decision latency in wall-clock milliseconds.
	// It is nondeterministic and therefore zeroed in deterministic exports.
	SchedWallMS float64 `json:"sched_wall_ms,omitempty"`
}

// Snapshot renders the run's statistics. includeWall controls whether the
// nondeterministic wall-clock scheduler latency is included.
func (s *SimStats) Snapshot(includeWall bool) RunStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := RunStats{
		Label:           s.Label,
		Machines:        s.machines,
		Slots:           s.totalSlots,
		MaxQueueLen:     s.maxQueue,
		Events:          map[string]int64{},
		QueueHist:       s.queueHist.Snapshot(),
		QueueTimeline:   append([]TimelinePoint(nil), s.timeline...),
		MaxEventHeap:    s.maxEventHeap,
		MaxGlobalHeap:   s.maxGlobalHeap,
		MaxCategoryHeap: s.maxCategoryHeap,
		PopsTotal:       s.popsTotal,
		PopsAny:         s.popsAny,
		SchedCalls:      s.schedCalls,
		SchedPlaced:     s.schedPlaced,
	}
	for k, n := range s.events {
		out.Events[k] = n
	}
	out.QueueP50 = round9(out.QueueHist.Quantile(0.50))
	out.QueueP95 = round9(out.QueueHist.Quantile(0.95))
	out.QueueP99 = round9(out.QueueHist.Quantile(0.99))
	if s.span > 0 {
		out.SlotUtilization = round9(s.busyIntegral / (float64(s.totalSlots) * s.span))
		out.MeanQueueLen = round9(s.queueIntegral / s.span)
	}
	if s.final != nil {
		out.Scheduler = s.final.Scheduler
		out.Completed = s.final.CompletedCount
		out.Submitted = s.final.Submitted
		out.Horizon = s.final.Horizon
		out.EnergyJ = round9(s.final.EnergyJ)
		out.MeanRuntime = round9(s.final.MeanRuntime())
		out.MeanWait = round9(s.final.MeanWait())
		f := s.final
		if f.FailedAttempts != 0 || f.Timeouts != 0 || f.Evictions != 0 ||
			f.Retries != 0 || f.Lost != 0 || f.MachineDowns != 0 || f.MachineUps != 0 {
			out.Faults = &FaultStats{
				FailedAttempts: f.FailedAttempts, Timeouts: f.Timeouts,
				Evictions: f.Evictions, Retries: f.Retries, Lost: f.Lost,
				MachineDowns: f.MachineDowns, MachineUps: f.MachineUps,
			}
		}
	}
	apps := make([]string, 0, len(s.perApp))
	for app := range s.perApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		a := s.perApp[app]
		e := AppError{App: app, N: a.n}
		if a.n > 0 {
			e.MeanAbsRelErr = round9(a.sumAbsRelErr / float64(a.n))
			e.MeanRelErr = round9(a.sumRelErr / float64(a.n))
			e.MeanPredicted = round9(a.sumPredicted / float64(a.n))
			e.MeanRealized = round9(a.sumRealized / float64(a.n))
		}
		out.PerApp = append(out.PerApp, e)
	}
	if includeWall {
		out.SchedWallMS = float64(s.schedWall) / float64(time.Millisecond)
	}
	return out
}

// RunLabel derives a deterministic run identifier from run inputs: a
// human-readable prefix plus an FNV-1a hash over the task stream. Two runs
// with the same experiment kind, scheduler, cluster size and tasks get the
// same label no matter which worker executes them or in what order — the
// property that keeps metric exports identical across -parallel widths.
func RunLabel(kind, scheduler string, machines int, tasks []sched.Task) string {
	h := fnv.New64a()
	var buf [8]byte
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	io.WriteString(h, kind)
	io.WriteString(h, "\x00")
	io.WriteString(h, scheduler)
	io.WriteString(h, "\x00")
	wi(int64(machines))
	wi(int64(len(tasks)))
	for _, t := range tasks {
		wi(t.ID)
		io.WriteString(h, t.App)
		wf(t.Arrival)
	}
	return fmt.Sprintf("%s/%s/m%d/%016x", kind, scheduler, machines, h.Sum64())
}

// Collector owns one SimStats per run label, for experiment suites that
// execute many runs (possibly from parallel workers).
type Collector struct {
	mu   sync.Mutex
	runs map[string]*SimStats
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{runs: map[string]*SimStats{}}
}

// Observer returns the run collector for label, creating it on first use.
// The label must be input-derived (see RunLabel) so that which-worker-ran-it
// never leaks into exports.
func (c *Collector) Observer(label string) *SimStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.runs[label]
	if !ok {
		s = NewSimStats(label)
		c.runs[label] = s
	}
	return s
}

// Len returns the number of runs collected.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// Snapshot renders every run sorted by label.
func (c *Collector) Snapshot(includeWall bool) []RunStats {
	c.mu.Lock()
	stats := make([]*SimStats, 0, len(c.runs))
	for _, s := range c.runs {
		stats = append(stats, s)
	}
	c.mu.Unlock()
	out := make([]RunStats, 0, len(stats))
	for _, s := range stats {
		out = append(out, s.Snapshot(includeWall))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// WriteJSON writes the full per-run statistics as indented JSON.
func (c *Collector) WriteJSON(w io.Writer, includeWall bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot(includeWall))
}

// csvHeader is the flat per-run summary schema (documented in README.md).
var csvHeader = []string{
	"label", "scheduler", "machines", "slots", "completed", "submitted",
	"horizon_s", "energy_j", "mean_runtime_s", "mean_wait_s",
	"slot_utilization", "mean_queue_len", "max_queue_len",
	"queue_p50", "queue_p95", "queue_p99",
	"max_event_heap", "max_pool_global_heap", "max_pool_category_heap",
	"pops_total", "pops_any", "sched_calls", "sched_placed",
	"mean_abs_rel_err",
}

// WriteCSV writes a flat one-row-per-run summary (wall latency excluded —
// the CSV is always deterministic).
func (c *Collector) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, r := range c.Snapshot(false) {
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
			strconv.Itoa(r.MaxEventHeap), strconv.Itoa(r.MaxGlobalHeap),
			strconv.Itoa(r.MaxCategoryHeap),
			d(r.PopsTotal), d(r.PopsAny), d(r.SchedCalls), d(r.SchedPlaced),
			f(overall),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Export writes metrics_<tag>.json and metrics_<tag>.csv under dir,
// creating dir if needed. The JSON includes wall latency only when
// includeWall is set; the CSV never does.
func (c *Collector) Export(dir, tag string, includeWall bool) (jsonPath, csvPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	jsonPath = filepath.Join(dir, fmt.Sprintf("metrics_%s.json", tag))
	jf, err := os.Create(jsonPath)
	if err != nil {
		return "", "", err
	}
	if err := c.WriteJSON(jf, includeWall); err != nil {
		jf.Close()
		return "", "", err
	}
	if err := jf.Close(); err != nil {
		return "", "", err
	}
	csvPath = filepath.Join(dir, fmt.Sprintf("metrics_%s.csv", tag))
	cf, err := os.Create(csvPath)
	if err != nil {
		return "", "", err
	}
	if err := c.WriteCSV(cf); err != nil {
		cf.Close()
		return "", "", err
	}
	return jsonPath, csvPath, cf.Close()
}

// Multi fans events out to several observers in order; the first error
// aborts the run.
type Multi []sim.Observer

// Observe forwards ev to each observer.
func (m Multi) Observe(v sim.View, ev sim.Event) error {
	for _, o := range m {
		if err := o.Observe(v, ev); err != nil {
			return err
		}
	}
	return nil
}
