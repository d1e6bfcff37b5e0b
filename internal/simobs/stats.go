package simobs

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync"

	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/sim"
)

// SimStats is one run's statistics collector. It integrates time-weighted
// state (queue length, busy slots) between events, tracks heap high-water
// marks, accumulates per-application realized-vs-predicted interference
// error, and counts scheduler decisions.
//
// Every number is a pure function of the simulated run, so exports are
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

	queueHist *obs.Histogram

	events   map[string]int64
	maxQueue int

	maxEventHeap int

	popsTotal int64
	popsAny   int64

	perApp map[string]*appAcc

	schedCalls  int64
	schedPlaced int64

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
		queueHist: obs.NewHistogram(obs.ExpBuckets(1, 2, 14)), // 1..8192 then overflow
		events:    map[string]int64{},
		perApp:    map[string]*appAcc{},
		lastQueue: -1,
	}
}

// Observe implements sim.Observer. A processed event integrates the
// previous state up to now and snapshots the new one; completions
// accumulate realized-vs-predicted interference error per app; pops,
// decisions and the run's end feed their counters.
func (s *SimStats) Observe(v sim.View, ev *sim.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case sim.OnStep:
		s.step(v, ev.Step, ev.Now)
	case sim.OnComplete:
		s.complete(&ev.Complete)
	case sim.OnPop:
		s.popsTotal++
		if ev.Pop.Category == sched.AnyCategory {
			s.popsAny++
		}
	case sim.OnDecision:
		s.schedCalls++
		s.schedPlaced += int64(ev.Decision.Placed)
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
}

// complete accumulates realized-vs-predicted interference error per app.
func (s *SimStats) complete(c *sim.Completion) {
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

// RunStats is the exportable snapshot of one run.
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

	Events        map[string]int64      `json:"events"`
	QueueHist     obs.HistogramSnapshot `json:"queue_hist"`
	QueueTimeline []TimelinePoint       `json:"queue_timeline"`

	MaxEventHeap int `json:"max_event_heap"`

	PopsTotal int64 `json:"pops_total"`
	PopsAny   int64 `json:"pops_any"`

	PerApp []AppError `json:"per_app"`

	// Faults summarizes fault-injection recovery; nil (and absent from the
	// JSON) in fault-free runs, so existing exports are byte-unchanged.
	Faults *FaultStats `json:"faults,omitempty"`

	SchedCalls  int64 `json:"sched_calls"`
	SchedPlaced int64 `json:"sched_placed"`
}

// Snapshot renders the run's statistics.
func (s *SimStats) Snapshot() RunStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := RunStats{
		Label:         s.Label,
		Machines:      s.machines,
		Slots:         s.totalSlots,
		MaxQueueLen:   s.maxQueue,
		Events:        map[string]int64{},
		QueueHist:     s.queueHist.Snapshot(),
		QueueTimeline: append([]TimelinePoint(nil), s.timeline...),
		MaxEventHeap:  s.maxEventHeap,
		PopsTotal:     s.popsTotal,
		PopsAny:       s.popsAny,
		SchedCalls:    s.schedCalls,
		SchedPlaced:   s.schedPlaced,
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
	if f := s.final; f != nil {
		out.Scheduler = f.Scheduler
		out.Completed = f.CompletedCount
		out.Submitted = f.Submitted
		out.Horizon = f.Horizon
		out.EnergyJ = round9(f.EnergyJ)
		out.MeanRuntime = round9(f.MeanRuntime())
		out.MeanWait = round9(f.MeanWait())
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
	return out
}

// round9 trims float noise for stable human-facing exports where exactness
// is not load-bearing (never applied to determinism-checked fields).
func round9(v float64) float64 {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Round(v*1e9) / 1e9
}

// RunLabel derives a deterministic run identifier from run inputs: a
// human-readable prefix plus an FNV-1a hash over the task stream. Two runs
// with the same experiment kind, scheduler, cluster size and tasks get the
// same label no matter which worker executes them or in what order — the
// property that keeps exports identical across -parallel widths.
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
