package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome/Perfetto trace_event export: the run becomes one process per
// machine (one thread per VM slot, carrying the interference-dilated
// execution segments as complete "X" spans) plus one scheduler process
// carrying queue-wait spans (async "b"/"e" pairs keyed by task ID),
// decision instants and backlog/free-slot counters. The output opens in
// ui.perfetto.dev or chrome://tracing. Sim seconds map to trace
// microseconds. Everything is derived from the event stream in order, so
// the export is deterministic.

// perfettoEvent is one trace_event entry. Field order fixes the JSON
// layout; Args is map-backed and encoding/json sorts map keys, so the
// bytes are stable.
type perfettoEvent struct {
	Name  string                 `json:"name,omitempty"`
	Cat   string                 `json:"cat,omitempty"`
	Ph    string                 `json:"ph"`
	TS    float64                `json:"ts"`
	Dur   *float64               `json:"dur,omitempty"`
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid,omitempty"`
	ID    *int64                 `json:"id,omitempty"`
	Scope string                 `json:"s,omitempty"`
	Args  map[string]interface{} `json:"args,omitempty"`
}

type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

const usPerSec = 1e6

// openSeg tracks a not-yet-closed execution segment on one VM slot.
type openSeg struct {
	start     float64
	task      int64
	app       string
	rate      float64
	neighbour string
}

// WritePerfetto renders the run as Chrome/Perfetto trace_event JSON.
func WritePerfetto(w io.Writer, run *RunTrace) error {
	// pid 0 is reserved by the UI; machines map to pid = index+1 and the
	// scheduler to the next pid after the highest machine seen.
	maxMachine := run.Machines - 1
	for _, ev := range run.Events {
		switch {
		case ev.Segment != nil && ev.Segment.Machine > maxMachine:
			maxMachine = ev.Segment.Machine
		case ev.Place != nil && ev.Place.Machine > maxMachine:
			maxMachine = ev.Place.Machine
		case ev.Complete != nil && ev.Complete.Machine > maxMachine:
			maxMachine = ev.Complete.Machine
		}
	}
	schedPID := maxMachine + 2

	var out perfettoFile
	out.DisplayTimeUnit = "ms"
	meta := func(pid, tid int, kind, name string) {
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: kind, Ph: "M", PID: pid, TID: tid,
			Args: map[string]interface{}{"name": name},
		})
	}
	schedName := run.Scheduler
	if schedName == "" {
		schedName = "scheduler"
	}
	meta(schedPID, 0, "process_name", "scheduler "+schedName)
	usedMachine := map[int]bool{}
	machineMeta := func(m int) {
		if usedMachine[m] {
			return
		}
		usedMachine[m] = true
	}

	// Track open execution segments per slot and open wait spans per task.
	type slotKey struct{ m, s int }
	openSegs := map[slotKey]openSeg{}
	waitOpen := map[int64]bool{}

	span := func(m, s int, seg openSeg, end float64) {
		dur := (end - seg.start) * usPerSec
		args := map[string]interface{}{"task": seg.task, "rate": seg.rate}
		if seg.neighbour != "" {
			args["neighbour"] = seg.neighbour
		}
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: seg.app, Cat: "exec", Ph: "X", TS: seg.start * usPerSec,
			Dur: &dur, PID: m + 1, TID: s + 1, Args: args,
		})
	}

	var lastT float64
	serveSeen := false
	for _, ev := range run.Events {
		lastT = ev.T
		// Serving-path spans (schema 3) carry their own payload and never
		// share an event with the simulator kinds; render them on their own
		// tracks so a tracond export opens in the same UI.
		if ev.Serve != nil {
			serveSeen = true
			writeServeEvent(&out, ev, schedPID, machineMeta)
			continue
		}
		switch ev.Kind {
		case "enqueue":
			e := ev.Enqueue
			id := e.Task
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: e.App, Cat: "wait", Ph: "b", TS: ev.T * usPerSec,
				PID: schedPID, TID: 1, ID: &id,
			})
			waitOpen[e.Task] = true
		case "place":
			p := ev.Place
			machineMeta(p.Machine)
			if waitOpen[p.Task] {
				id := p.Task
				out.TraceEvents = append(out.TraceEvents, perfettoEvent{
					Name: p.App, Cat: "wait", Ph: "e", TS: ev.T * usPerSec,
					PID: schedPID, TID: 1, ID: &id,
				})
				delete(waitOpen, p.Task)
			}
		case "segment":
			s := ev.Segment
			machineMeta(s.Machine)
			key := slotKey{s.Machine, s.Slot}
			if open, ok := openSegs[key]; ok && ev.T > open.start {
				span(s.Machine, s.Slot, open, ev.T)
			}
			openSegs[key] = openSeg{
				start: ev.T, task: s.Task, app: s.App,
				rate: s.Rate, neighbour: s.Neighbour,
			}
		case "complete":
			c := ev.Complete
			machineMeta(c.Machine)
			key := slotKey{c.Machine, c.Slot}
			if open, ok := openSegs[key]; ok {
				span(c.Machine, c.Slot, open, ev.T)
				delete(openSegs, key)
			}
		case "fail", "timeout", "evict":
			// The attempt ended without completing; close its open segment.
			if f := ev.Fault; f != nil && f.Machine >= 0 {
				machineMeta(f.Machine)
				key := slotKey{f.Machine, f.Slot}
				if open, ok := openSegs[key]; ok {
					if ev.T > open.start {
						span(f.Machine, f.Slot, open, ev.T)
					}
					delete(openSegs, key)
				}
				out.TraceEvents = append(out.TraceEvents, perfettoEvent{
					Name: ev.Kind, Cat: "fault", Ph: "i", TS: ev.T * usPerSec,
					PID: f.Machine + 1, TID: f.Slot + 1, Scope: "t",
					Args: map[string]interface{}{"task": f.Task, "attempt": f.Attempt},
				})
			}
		case "machine_down", "machine_up":
			if f := ev.Fault; f != nil && f.Machine >= 0 {
				machineMeta(f.Machine)
				out.TraceEvents = append(out.TraceEvents, perfettoEvent{
					Name: ev.Kind, Cat: "fault", Ph: "i", TS: ev.T * usPerSec,
					PID: f.Machine + 1, TID: 1, Scope: "p",
				})
			}
		case "decision":
			d := ev.Decision
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: "decision", Cat: "sched", Ph: "i", TS: ev.T * usPerSec,
				PID: schedPID, TID: 1, Scope: "t",
				Args: map[string]interface{}{
					"batch": d.Batch, "placed": d.Placed,
					"backlog": d.Backlog, "free_slots": d.FreeSlots,
				},
			})
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: "backlog", Ph: "C", TS: ev.T * usPerSec, PID: schedPID,
				Args: map[string]interface{}{"queued": d.Backlog},
			})
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: "free_slots", Ph: "C", TS: ev.T * usPerSec, PID: schedPID,
				Args: map[string]interface{}{"free": d.FreeSlots},
			})
		}
	}
	// Close segments still running when the trace ends (horizon cut),
	// in deterministic slot order.
	keys := make([]slotKey, 0, len(openSegs))
	for k := range openSegs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].m != keys[j].m {
			return keys[i].m < keys[j].m
		}
		return keys[i].s < keys[j].s
	})
	for _, k := range keys {
		open := openSegs[k]
		if lastT > open.start {
			span(k.m, k.s, open, lastT)
		}
	}
	// Name the machine processes and slot threads actually used.
	machines := make([]int, 0, len(usedMachine))
	for m := range usedMachine {
		machines = append(machines, m)
	}
	sort.Ints(machines)
	for _, m := range machines {
		meta(m+1, 0, "process_name", fmt.Sprintf("machine %d", m))
		meta(m+1, 1, "thread_name", "vm0")
		meta(m+1, 2, "thread_name", "vm1")
	}
	if serveSeen {
		meta(schedPID, serveTaskTID, "thread_name", "tasks")
		meta(schedPID, serveCoalesceTID, "thread_name", "coalesce")
		meta(schedPID, serveSchedTID, "thread_name", "sched")
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Serving-run track layout on the scheduler process: task lifecycle
// spans (admit→complete, async, keyed by the numeric placement ID),
// coalescer waits, and scheduling passes.
const (
	serveTaskTID     = 1
	serveCoalesceTID = 2
	serveSchedTID    = 3
)

// serveTaskNum extracts the numeric part of a "t-<n>" placement ID for
// use as an async-span key; ok is false for foreign ID shapes.
func serveTaskNum(task string) (int64, bool) {
	var n int64
	seen := false
	for i := 0; i < len(task); i++ {
		if c := task[i]; c >= '0' && c <= '9' {
			n = n*10 + int64(c-'0')
			seen = true
		}
	}
	return n, seen
}

// writeServeEvent renders one serving-path span. Interval spans
// (coalesce_wait, score, batch_pass) are stamped at their end with DurS,
// so the complete-span start is ts − dur; lifecycle events become async
// b/e pairs (admit → complete) plus instants on the machine tracks.
func writeServeEvent(out *perfettoFile, ev TraceEvent, schedPID int, machineMeta func(int)) {
	sv := ev.Serve
	ts := ev.T * usPerSec
	args := map[string]interface{}{}
	if sv.Req != "" {
		args["req"] = sv.Req
	}
	if sv.Task != "" {
		args["task"] = sv.Task
	}
	if sv.App != "" {
		args["app"] = sv.App
	}
	switch ev.Kind {
	case "admit":
		if id, ok := serveTaskNum(sv.Task); ok {
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: sv.App, Cat: "task", Ph: "b", TS: ts,
				PID: schedPID, TID: serveTaskTID, ID: &id, Args: args,
			})
		}
	case "complete":
		if id, ok := serveTaskNum(sv.Task); ok {
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: sv.App, Cat: "task", Ph: "e", TS: ts,
				PID: schedPID, TID: serveTaskTID, ID: &id,
			})
		}
		if sv.Machine >= 0 {
			machineMeta(sv.Machine)
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: "complete", Cat: "serve", Ph: "i", TS: ts, Scope: "t",
				PID: sv.Machine + 1, TID: sv.Slot + 1, Args: args,
			})
		}
	case "place", "evict_requeue":
		if sv.Machine >= 0 {
			machineMeta(sv.Machine)
			if sv.Neighbour != "" {
				args["neighbour"] = sv.Neighbour
			}
			if sv.Predicted > 0 {
				args["pred"] = sv.Predicted
			}
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: ev.Kind, Cat: "serve", Ph: "i", TS: ts, Scope: "t",
				PID: sv.Machine + 1, TID: sv.Slot + 1, Args: args,
			})
		}
	case "reject":
		if sv.Reason != "" {
			args["reason"] = sv.Reason
		}
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: "reject", Cat: "admission", Ph: "i", TS: ts, Scope: "t",
			PID: schedPID, TID: serveTaskTID, Args: args,
		})
	case "coalesce_wait":
		dur := sv.DurS * usPerSec
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: sv.App, Cat: "coalesce", Ph: "X", TS: ts - dur, Dur: &dur,
			PID: schedPID, TID: serveCoalesceTID, Args: args,
		})
	case "score", "batch_pass":
		dur := sv.DurS * usPerSec
		args["batch"] = sv.Batch
		if ev.Kind == "batch_pass" {
			args["placed"] = sv.Placed
		}
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: ev.Kind, Cat: "sched", Ph: "X", TS: ts - dur, Dur: &dur,
			PID: schedPID, TID: serveSchedTID, Args: args,
		})
	default: // future kinds, and an old stream's plan_commit / plan_retry / plan_fallback
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: ev.Kind, Cat: "sched", Ph: "i", TS: ts, Scope: "t",
			PID: schedPID, TID: serveSchedTID, Args: args,
		})
	}
}
