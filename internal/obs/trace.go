package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// This file implements Tracer, a bounded, deterministic recorder of trace
// events: the simulator's per-task lifecycle spans and scheduler decisions
// (recorded by internal/simobs) and the serving daemon's request spans.
// Events land in a ring buffer of fixed capacity with an explicit drop
// counter, so tracing a 10,000-machine run costs O(capacity) memory and
// the export says exactly how much history it kept. Two export formats
// are supported: a compact NDJSON stream (the canonical, machine-readable
// form consumed by cmd/tracontrace) and Chrome/Perfetto trace_event JSON
// (one track per machine, one for the scheduler) for chrome://tracing or
// ui.perfetto.dev.

// TraceSchema versions the NDJSON stream. Schema 2 added the fault event
// kinds (fail, timeout, evict, retry, lost, machine_down, machine_up);
// schema 3 added the serving-path span kinds carried in the Serve payload
// (admit, reject, coalesce_wait, batch_pass, score, place, complete,
// evict_requeue — the last three distinguished from their simulator
// namesakes by the payload). ReadTraces still accepts older streams, with
// or without the retired plan_commit / plan_retry / plan_fallback kinds.
const TraceSchema = 3

// minTraceSchema is the oldest schema ReadTraces accepts.
const minTraceSchema = 1

// DefaultTraceCap is the default ring capacity (events per run).
const DefaultTraceCap = 1 << 16

// TraceEvent is one recorded simulation event. Exactly one payload pointer
// is non-nil, matching Kind.
type TraceEvent struct {
	// Seq is the event's emission index within its run (0-based, counts
	// dropped events too: a stream that starts at Seq > 0 lost its head).
	Seq int64 `json:"seq"`
	// T is the simulation time in seconds.
	T float64 `json:"t"`
	// Kind is one of arrival, enqueue, flush, decision, pop, place,
	// segment, complete, done — or, in fault-injected runs, one of the
	// fault kinds fail, timeout, evict, retry, lost, machine_down,
	// machine_up (all carried in the Fault payload).
	Kind string `json:"k"`

	Arrival  *ArrivalInfo  `json:"arrival,omitempty"`
	Enqueue  *EnqueueInfo  `json:"enqueue,omitempty"`
	Decision *DecisionInfo `json:"decision,omitempty"`
	Pop      *PopInfo      `json:"pop,omitempty"`
	Place    *PlaceInfo    `json:"place,omitempty"`
	Segment  *SegmentInfo  `json:"segment,omitempty"`
	Complete *CompleteInfo `json:"complete,omitempty"`
	Fault    *FaultInfo    `json:"fault,omitempty"`
	Done     *DoneInfo     `json:"done,omitempty"`
	Serve    *ServeInfo    `json:"serve,omitempty"`
}

// ServeInfo is the payload of every serving-path span (schema 3): the
// online daemon's request lifecycle, joinable end to end by Req (the
// submission's X-Request-Id) and Task (the placement ID). T on the
// enclosing event is seconds since the daemon started. Spans that cover
// an interval (coalesce_wait, score, batch_pass) carry their duration in
// DurS and are stamped at the interval's end.
type ServeInfo struct {
	// Req is the request ID of the submission that created the task; on
	// admit/reject it is the current request's ID.
	Req string `json:"req,omitempty"`
	// Task is the placement ID ("t-<n>").
	Task string `json:"task,omitempty"`
	App  string `json:"app,omitempty"`
	// Machine and Slot locate placement-bound events (-1 when not bound).
	Machine int `json:"m"`
	Slot    int `json:"s"`
	// Neighbour is the co-located application at placement time.
	Neighbour string `json:"nb,omitempty"`
	// Batch and Placed describe one scheduling pass (batch_pass, score).
	Batch  int `json:"batch,omitempty"`
	Placed int `json:"placed,omitempty"`
	// DurS is the span's duration in seconds (interval spans only).
	DurS float64 `json:"dur_s,omitempty"`
	// Reason carries the shed/failure reason (reject).
	Reason string `json:"reason,omitempty"`
	// Predicted is the model's runtime forecast at placement (place).
	Predicted float64 `json:"pred,omitempty"`
	// Gen is the model generation that made the decision (place).
	Gen uint64 `json:"gen,omitempty"`
}

// ArrivalInfo records one task arrival.
type ArrivalInfo struct {
	Task int64  `json:"task"`
	App  string `json:"app"`
	// Held marks tasks parked on unmet workflow dependencies.
	Held bool    `json:"held,omitempty"`
	Deps []int64 `json:"deps,omitempty"`
}

// EnqueueInfo records a task entering the scheduling backlog.
type EnqueueInfo struct {
	Task int64  `json:"task"`
	App  string `json:"app"`
	// Released marks tasks a workflow-dependency completion unblocked.
	Released bool `json:"released,omitempty"`
}

// DecisionInfo records one scheduling-policy invocation: what the policy
// was offered, what it placed, and the candidate set it chose from.
type DecisionInfo struct {
	Batch      int             `json:"batch"`
	Placed     int             `json:"placed"`
	Backlog    int             `json:"backlog"`
	FreeSlots  int             `json:"free_slots"`
	Candidates []CategoryCount `json:"candidates,omitempty"`
}

// CategoryCount is one candidate-set entry (category = neighbour app).
type CategoryCount struct {
	Category string `json:"cat"`
	N        int    `json:"n"`
}

// PopInfo records one free-pool resolution.
type PopInfo struct {
	Category string `json:"cat"`
	Machine  int    `json:"m"`
	Slot     int    `json:"s"`
	// FreeGen is the popped slot's freed-order stamp in the pool's
	// FIFO-over-VMs queue.
	FreeGen int64 `json:"free_gen"`
}

// PlaceInfo records a task starting on a concrete VM.
type PlaceInfo struct {
	Task      int64   `json:"task"`
	App       string  `json:"app"`
	Machine   int     `json:"m"`
	Slot      int     `json:"s"`
	Neighbour string  `json:"nb,omitempty"`
	Work      float64 `json:"work"`
	Predicted float64 `json:"pred"`
}

// SegmentInfo records the start of one constant-rate execution segment.
type SegmentInfo struct {
	Machine   int     `json:"m"`
	Slot      int     `json:"s"`
	Task      int64   `json:"task"`
	App       string  `json:"app"`
	Rate      float64 `json:"rate"`
	Neighbour string  `json:"nb,omitempty"`
	WorkLeft  float64 `json:"left"`
}

// CompleteInfo records one finished task.
type CompleteInfo struct {
	Task      int64   `json:"task"`
	App       string  `json:"app"`
	Machine   int     `json:"m"`
	Slot      int     `json:"s"`
	Start     float64 `json:"start"`
	Wait      float64 `json:"wait"`
	Predicted float64 `json:"pred"`
	Residual  float64 `json:"resid"`
}

// FaultInfo records one fault-injection transition. Kind on the enclosing
// TraceEvent names the transition; machine transitions carry Slot -1 and no
// task, retry/lost carry Machine and Slot -1.
type FaultInfo struct {
	Machine int    `json:"m"`
	Slot    int    `json:"s"`
	Task    int64  `json:"task,omitempty"`
	App     string `json:"app,omitempty"`
	// Attempt is the task's placement attempts made so far.
	Attempt int `json:"attempt,omitempty"`
	// Delay is the retry backoff in seconds (retry only).
	Delay float64 `json:"delay,omitempty"`
}

// DoneInfo records the end of a run.
type DoneInfo struct {
	Scheduler string  `json:"scheduler"`
	Completed int     `json:"completed"`
	Submitted int     `json:"submitted"`
	Horizon   float64 `json:"horizon_s"`
}

// Tracer is a bounded, deterministic recorder for one run. The zero value
// is not usable; use NewTracer.
type Tracer struct {
	mu        sync.Mutex
	label     string
	scheduler string
	machines  int
	cap       int
	buf       []TraceEvent
	total     int64
}

// NewTracer builds a recorder with the given ring capacity (events);
// capacity <= 0 takes DefaultTraceCap. A simulation run's label should
// be input-derived (see simobs.RunLabel); scheduler and machines annotate
// the export header.
func NewTracer(label, scheduler string, machines, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{label: label, scheduler: scheduler, machines: machines, cap: capacity}
}

// Append records one event (a simulator event or a serving-path span),
// overwriting the oldest once the ring is full. The ring stamps its Seq.
func (t *Tracer) Append(ev TraceEvent) {
	t.mu.Lock()
	ev.Seq = t.total
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.total%int64(t.cap)] = ev
	}
	t.total++
	t.mu.Unlock()
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d := t.total - int64(len(t.buf)); d > 0 {
		return d
	}
	return 0
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.buf))
	if t.total > int64(t.cap) {
		head := int(t.total % int64(t.cap))
		out = append(out, t.buf[head:]...)
		out = append(out, t.buf[:head]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// traceHeader is the NDJSON run-header line.
type traceHeader struct {
	Kind      string `json:"k"` // always "run"
	Schema    int    `json:"schema"`
	Label     string `json:"label"`
	Scheduler string `json:"scheduler"`
	Machines  int    `json:"machines"`
	Events    int64  `json:"events"`
	Dropped   int64  `json:"dropped"`
}

// WriteNDJSON writes the run as one header line followed by one JSON
// object per retained event.
func (t *Tracer) WriteNDJSON(w io.Writer) error {
	t.mu.Lock()
	hdr := traceHeader{
		Kind: "run", Schema: TraceSchema, Label: t.label,
		Scheduler: t.scheduler, Machines: t.machines, Events: t.total,
	}
	t.mu.Unlock()
	if hdr.Dropped = t.Dropped(); hdr.Dropped < 0 {
		hdr.Dropped = 0
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RunTrace is one run loaded back from an NDJSON export.
type RunTrace struct {
	Label     string
	Scheduler string
	Machines  int
	// Total is the number of events the run emitted; Dropped of those were
	// overwritten in the ring and are absent from Events.
	Total   int64
	Dropped int64
	Events  []TraceEvent
}

// ReadTraces parses an NDJSON export (one or more runs).
func ReadTraces(r io.Reader) ([]*RunTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var runs []*RunTrace
	var cur *RunTrace
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Kind string `json:"k"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if probe.Kind == "run" {
			var hdr traceHeader
			if err := json.Unmarshal(raw, &hdr); err != nil {
				return nil, fmt.Errorf("obs: trace header line %d: %w", line, err)
			}
			if hdr.Schema < minTraceSchema || hdr.Schema > TraceSchema {
				return nil, fmt.Errorf("obs: trace line %d: unsupported schema %d", line, hdr.Schema)
			}
			cur = &RunTrace{
				Label: hdr.Label, Scheduler: hdr.Scheduler, Machines: hdr.Machines,
				Total: hdr.Events, Dropped: hdr.Dropped,
			}
			runs = append(runs, cur)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("obs: trace line %d: event before run header", line)
		}
		var ev TraceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		cur.Events = append(cur.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return runs, nil
}
