package serve

import (
	"io"
	"time"

	"tracon/internal/durable"
	"tracon/internal/obs"
)

// serveTracer records the daemon's request lifecycle into a bounded
// obs.Tracer ring using the schema-3 serve span kinds, exported live on
// GET /v1/trace as NDJSON. Every emit is nil-safe so a daemon running
// with tracing disabled pays only a pointer check per span site. T on
// every span is seconds since the daemon started, making spans from one
// process directly comparable and the export convertible by
// tracontrace -perfetto.
type serveTracer struct {
	tr    *obs.Tracer
	clock obs.Clock
	start time.Time
}

// newServeTracer builds the ring. capacity <= 0 takes obs.DefaultTraceCap.
func newServeTracer(policy string, machines, capacity int, clock obs.Clock) *serveTracer {
	return &serveTracer{
		tr:    obs.NewTracer("tracond", policy, machines, capacity),
		clock: clock,
		start: clock.Now(),
	}
}

// emit stamps and records one span.
func (t *serveTracer) emit(kind string, info obs.ServeInfo) {
	if t == nil {
		return
	}
	t.tr.Append(obs.TraceEvent{
		T:     t.clock.Since(t.start).Seconds(),
		Kind:  kind,
		Serve: &info,
	})
}

// admit records a task entering the backlog.
func (t *serveTracer) admit(reqID, task, app string) {
	t.emit("admit", obs.ServeInfo{Req: reqID, Task: task, App: app, Machine: -1, Slot: -1})
}

// reject records a shed submission and why.
func (t *serveTracer) reject(reqID, app, reason string) {
	t.emit("reject", obs.ServeInfo{Req: reqID, App: app, Machine: -1, Slot: -1, Reason: reason})
}

// coalesceWait records how long a submission was parked in the coalescer.
func (t *serveTracer) coalesceWait(reqID, app string, dur time.Duration) {
	t.emit("coalesce_wait", obs.ServeInfo{
		Req: reqID, App: app, Machine: -1, Slot: -1, DurS: dur.Seconds(),
	})
}

// pass records one scheduling pass as kind "score" (up to the scheduler's
// decision: the batch and census refill, then the scheduler invocation,
// the model-scoring hot path) or "batch_pass" (the full draining
// iteration): batch offered, tasks placed, wall time.
func (t *serveTracer) pass(kind string, batch, placed int, dur time.Duration) {
	t.emit(kind, obs.ServeInfo{
		Machine: -1, Slot: -1, Batch: batch, Placed: placed, DurS: dur.Seconds(),
	})
}

// place records a task binding to a concrete slot, as decided in ev.
func (t *serveTracer) place(rec *Placement, ev *durable.Event) {
	t.emit("place", obs.ServeInfo{
		Req: rec.ReqID, Task: rec.ID, App: rec.App,
		Machine: ev.Machine, Slot: ev.Slot, Neighbour: ev.Neighbour,
		Predicted: ev.PredRT, Gen: ev.Gen,
	})
}

// release records a task leaving its slot as kind "complete" (it
// finished) or "evict_requeue" (it is about to lose its VM — to a kill, or
// to the crash of the daemon that placed it — and return to the backlog).
func (t *serveTracer) release(kind string, rec *Placement) {
	t.emit(kind, obs.ServeInfo{
		Req: rec.ReqID, Task: rec.ID, App: rec.App,
		Machine: rec.Machine, Slot: rec.Slot,
	})
}

// recovery records one boot-time journal recovery: events replayed
// (Batch), orphans re-queued (Placed) and the wall time of the whole
// restore-replay-verify sequence.
func (t *serveTracer) recovery(replayed, orphans int, dur time.Duration) {
	t.emit("recovery", obs.ServeInfo{
		Machine: -1, Slot: -1, Batch: replayed, Placed: orphans, DurS: dur.Seconds(),
	})
}

// writeNDJSON streams the retained spans; nil tracers write nothing.
func (t *serveTracer) writeNDJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.tr.WriteNDJSON(w)
}
