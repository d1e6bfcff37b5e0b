package simobs

import (
	"sort"

	"tracon/internal/obs"
	"tracon/internal/sim"
)

// trace records ev into t as one event of the NDJSON trace schema
// (obs.TraceEvent): every hook but OnStep, in engine order, so for a fixed
// seed the trace is a pure function of the run. Decisions read the backlog
// and the candidate set from the View, which shows them as the policy was
// offered them.
func trace(t *obs.Tracer, v sim.View, ev *sim.Event) {
	rec := obs.TraceEvent{T: ev.Now}
	switch ev.Kind {
	case sim.OnArrival:
		rec.Kind, rec.Arrival = "arrival", &obs.ArrivalInfo{Task: ev.Task.ID, App: ev.Task.App, Held: ev.Held, Deps: ev.Task.DependsOn}
	case sim.OnEnqueue:
		rec.Kind, rec.Enqueue = "enqueue", &obs.EnqueueInfo{Task: ev.Task.ID, App: ev.Task.App, Released: ev.Released}
	case sim.OnFlush:
		rec.Kind = "flush"
	case sim.OnDecision:
		d := &obs.DecisionInfo{Batch: ev.Decision.Batch, Placed: ev.Decision.Placed, Backlog: v.Backlog(), FreeSlots: v.FreeSlots()}
		for c, n := range v.PoolCounts() {
			d.Candidates = append(d.Candidates, obs.CategoryCount{Category: c, N: n})
		}
		sort.Slice(d.Candidates, func(i, j int) bool { return d.Candidates[i].Category < d.Candidates[j].Category })
		rec.Kind, rec.Decision = "decision", d
	case sim.OnPop:
		p := &ev.Pop
		rec.Kind, rec.Pop = "pop", &obs.PopInfo{Category: p.Category, Machine: p.Machine, Slot: p.Slot, FreeGen: p.FreeGen}
	case sim.OnPlace:
		p := &ev.Place
		rec.Kind, rec.Place = "place", &obs.PlaceInfo{
			Task: p.Task.ID, App: p.Task.App, Machine: p.Machine, Slot: p.Slot,
			Neighbour: p.Neighbour, Work: p.Work, Predicted: p.Predicted,
		}
	case sim.OnSegment:
		s := &ev.Segment
		rec.Kind, rec.Segment = "segment", &obs.SegmentInfo{
			Machine: s.Machine, Slot: s.Slot, Task: s.TaskID, App: s.App,
			Rate: s.Rate, Neighbour: s.Neighbour, WorkLeft: s.WorkLeft,
		}
	case sim.OnComplete:
		c, r := &ev.Complete, &ev.Complete.Record
		rec.Kind, rec.Complete = "complete", &obs.CompleteInfo{
			Task: r.Task.ID, App: r.Task.App, Machine: r.Machine, Slot: r.Slot,
			Start: r.Start, Wait: r.Wait(), Predicted: c.Predicted, Residual: c.Residual,
		}
	case sim.OnFault:
		f := &ev.Fault
		rec.Kind, rec.Fault = f.Kind, &obs.FaultInfo{
			Machine: f.Machine, Slot: f.Slot, Task: f.TaskID, App: f.App,
			Attempt: f.Attempt, Delay: f.Delay,
		}
	case sim.OnDone:
		r := ev.Results
		rec.Kind, rec.Done = "done", &obs.DoneInfo{
			Scheduler: r.Scheduler, Completed: r.CompletedCount,
			Submitted: r.Submitted, Horizon: r.Horizon,
		}
	default:
		return
	}
	t.Append(rec)
}
