package sim

import "tracon/internal/sched"

// This file is the engine's observability surface: an Observer receives
// one synchronous callback per lifecycle transition of every task
// (arrival → queue → placement → interference-dilated execution segments →
// completion), per scheduler decision and per processed engine event, with
// a View handle for read-only inspection of the engine's internals. A nil
// Config.Observer costs one branch per emission point, and a non-nil
// observer must not perturb the simulation: all View accessors are pure
// reads, and every payload is data the engine computes anyway. The
// no-perturbation and golden tests run with observers attached to enforce
// this.
//
// Every payload is a pure function of the simulated run, so a
// deterministic Observer (see internal/simobs) produces byte-identical
// exports for the same seed at every worker count.

// Observer receives simulation events. Observe runs synchronously on the
// engine's goroutine in event order; implementations must treat the View
// and the Event as read-only and must not call back into the engine. ev
// points at the one Event the engine refills for every emission, so it is
// valid only during the call: an observer must not keep the pointer (copy
// what it needs). A non-nil error aborts the run: the engine reports
// nothing further, the event being processed is the last one, and
// Engine.Run returns the error — that is how the invariant auditor turns a
// violation into a loud failure.
type Observer interface {
	Observe(v View, ev *Event) error
}

// Hook names what an Event reports and selects its payload field.
type Hook uint8

// The hooks, in the order a task meets them. OnFault fires only in
// fault-injected runs (Config.Faults non-nil).
const (
	// OnArrival: an arrival was processed (Task, Held). Held marks a task
	// with unmet workflow dependencies, parked instead of queued; an
	// OnEnqueue with Released follows once the last dependency completes.
	OnArrival Hook = iota
	// OnEnqueue: a task entered the scheduling backlog (Task, Released).
	// Released marks tasks a workflow-dependency completion just unblocked.
	OnEnqueue
	// OnFlush: a flush wake-up forces a scheduling pass on a partial batch.
	OnFlush
	// OnDecision: the scheduling policy ran (Decision). None of its
	// placements has been popped yet, so the View shows the backlog and
	// the free pool the policy was offered.
	OnDecision
	// OnPop: a free-pool resolution (Pop). The popped slot is already busy
	// in the pool; the task is not yet placed on the machine.
	OnPop
	// OnPlace: a task started on a concrete VM (Place).
	OnPlace
	// OnSegment: a running task's progress rate was repriced because
	// machine membership changed (Segment): the start of one execution
	// segment, which ends at the slot's next OnSegment or OnComplete.
	OnSegment
	// OnComplete: a task finished (Complete), before pool bookkeeping for
	// the freed slot.
	OnComplete
	// OnFault: a fault-injection transition (Fault; see fault.go): machine
	// crash/recover, attempt failure/timeout/eviction, a scheduled retry or
	// an abandoned task.
	OnFault
	// OnStep: an engine event has been processed and the scheduling pass
	// after it has finished (Step); engine state is consistent here, while
	// OnComplete and OnPop fire mid-transition.
	OnStep
	// OnDone: the run ended, after final energy settlement (Results). Now
	// is the run's horizon.
	OnDone
)

// Event is one observed engine event. Kind selects the one payload field
// that holds this event's data. The engine reuses one Event for every
// emission and sets only that field, so the others may hold an earlier
// event's data and must not be read.
type Event struct {
	Kind Hook
	// Now is the simulation time of the event.
	Now float64

	// Step is the processed engine event (OnStep).
	Step EventKind
	// Task is the arriving or enqueued task (OnArrival, OnEnqueue).
	Task sched.Task
	// Held and Released qualify Task (OnArrival and OnEnqueue).
	Held, Released bool

	Decision Decision   // OnDecision
	Pop      PopInfo    // OnPop
	Place    PlaceInfo  // OnPlace
	Segment  Segment    // OnSegment
	Complete Completion // OnComplete
	Fault    FaultInfo  // OnFault
	Results  *Results   // OnDone
}

// EventKind labels a processed engine event (the Step of an OnStep).
type EventKind int

// The event kinds of the engine's event loop. The fault kinds (EvFail and
// later) occur only in fault-injected runs (Config.Faults non-nil).
const (
	EvArrival EventKind = iota
	EvCompletion
	EvFlush
	// EvFail is a completion event whose attempt failed probabilistically.
	EvFail
	// EvMachineDown and EvMachineUp are machine crash/recover transitions.
	EvMachineDown
	EvMachineUp
	// EvSlowChange is a slowdown-window boundary repricing a slot.
	EvSlowChange
	// EvRetry is a retried task re-entering the backlog after backoff.
	EvRetry
	// EvTimeout is an attempt evicted at its per-attempt deadline.
	EvTimeout
)

// String returns the kind's label.
func (k EventKind) String() string {
	switch k {
	case EvArrival:
		return "arrival"
	case EvCompletion:
		return "completion"
	case EvFlush:
		return "flush"
	case EvFail:
		return "fail"
	case EvMachineDown:
		return "machine_down"
	case EvMachineUp:
		return "machine_up"
	case EvSlowChange:
		return "slow_change"
	case EvRetry:
		return "retry"
	case EvTimeout:
		return "timeout"
	}
	return "unknown"
}

// Decision describes one invocation of the scheduling policy.
type Decision struct {
	// Batch is the number of tasks offered to the policy.
	Batch int
	// Placed is the number of placements the policy emitted.
	Placed int
}

// PopInfo describes one free-pool resolution performed by the engine.
type PopInfo struct {
	// Category is the placement category that was resolved.
	Category string
	// Machine/Slot is the slot the pool returned.
	Machine, Slot int
	// FreeGen is the popped slot's freed-order stamp (the busy→free
	// generation that positions it in the pool's FIFO-over-VMs queue).
	FreeGen int64
}

// PlaceInfo describes one placement.
type PlaceInfo struct {
	// Task is the placed task.
	Task sched.Task
	// Machine and Slot name the VM the task starts on.
	Machine, Slot int
	// Neighbour is the application on the machine's other slot at
	// placement time (empty when the machine was idle).
	Neighbour string
	// Work is the task's solo execution time in seconds — the work the
	// task must progress through at its interference-dilated rate.
	Work float64
	// Predicted is the runtime forecast frozen at placement: Work over the
	// progress rate under Neighbour. Comparing it with the realized
	// runtime isolates mid-flight neighbour churn.
	Predicted float64
}

// Segment describes the start of one execution segment: a maximal interval
// over which a running task progresses at a constant interference-dilated
// rate. A new segment starts whenever machine membership changes.
type Segment struct {
	// Machine and Slot locate the running task.
	Machine, Slot int
	// TaskID and App identify it.
	TaskID int64
	App    string
	// Rate is the progress rate for this segment (1 = solo speed; lower
	// means the neighbour dilutes it).
	Rate float64
	// Neighbour is the co-resident application ("" when running alone).
	Neighbour string
	// WorkLeft is the remaining solo-seconds of work at segment start.
	WorkLeft float64
}

// Completion describes one finished task.
type Completion struct {
	// Record is the task's outcome.
	Record TaskRecord
	// Predicted is the runtime forecast frozen at placement time
	// (solo work over the progress rate under the placement's neighbour).
	// Realized-vs-predicted error measures how much mid-flight neighbour
	// churn moved the task away from its placement-time forecast.
	Predicted float64
	// Residual is the task's remaining work at completion before the
	// engine's non-negativity clamp; work conservation demands it settle
	// to zero (within float tolerance).
	Residual float64
}

// FaultInfo describes one fault-injection transition.
type FaultInfo struct {
	// Kind is one of the Fault* constants in fault.go: fail, timeout,
	// evict, retry, lost, machine_down, machine_up.
	Kind string
	// Machine and Slot locate the transition (-1 when not applicable:
	// machine transitions carry Slot -1, retry/lost carry both -1).
	Machine, Slot int
	// TaskID and App identify the affected task (zero/empty for machine
	// transitions).
	TaskID int64
	App    string
	// Attempt is the task's placement attempts made so far.
	Attempt int
	// Delay is the retry backoff in seconds (retry only).
	Delay float64
}

// View is a read-only window into a running engine for observers.
type View struct{ e *Engine }

// Now returns the current simulation time.
func (v View) Now() float64 { return v.e.now }

// Machines returns the cluster size.
func (v View) Machines() int { return len(v.e.machines) }

// TotalSlots returns the cluster's VM count.
func (v View) TotalSlots() int { return len(v.e.machines) * sched.SlotsPerMachine }

// Backlog returns the current queue length.
func (v View) Backlog() int { return v.e.backlog() }

// EventHeapLen returns the pending event count (to watch heap bloat): the
// event heap's length plus the arrivals not yet taken from the arrival
// cursor.
func (v View) EventHeapLen() int { return len(v.e.events) + len(v.e.arrivals) - v.e.next }

// EnergyJ returns the energy integrated so far.
func (v View) EnergyJ() float64 { return v.e.results.EnergyJ }

// FreeSlots returns the pool's free-slot count.
func (v View) FreeSlots() int { return v.e.pool.FreeSlots() }

// Slot reports the task running in (machine, slot): its application,
// remaining work in solo-seconds, and whether the slot is occupied.
func (v View) Slot(machine, slot int) (app string, workLeft float64, running bool) {
	if machine < 0 || machine >= len(v.e.machines) || slot < 0 || slot >= sched.SlotsPerMachine {
		return "", 0, false
	}
	rt := v.e.machines[machine].slots[slot]
	if rt == nil {
		return "", 0, false
	}
	return rt.task.App, rt.workLeft, true
}

// PoolOccupant returns the application the pool has running on (machine,
// slot), with ok=false when the pool has the slot unoccupied.
func (v View) PoolOccupant(machine, slot int) (string, bool) {
	return v.e.pool.Occupant(machine, slot)
}

// PoolFreeGen returns the freed-order stamp of a free slot (ok=false when
// the pool does not consider the slot free).
func (v View) PoolFreeGen(machine, slot int) (int64, bool) {
	return v.e.pool.FreeGen(machine, slot)
}

// PoolCheck re-derives the pool's free index from its occupancy by a full
// scan and reports the first disagreement (sched.FreePool.Check).
func (v View) PoolCheck() error { return v.e.pool.Check() }

// PoolCounts returns a copy of the pool's per-category free counts.
func (v View) PoolCounts() sched.Counts { return v.e.pool.Counts(nil) }

// MachineDown reports whether the machine is currently crashed under the
// run's fault plan (always false in fault-free runs).
func (v View) MachineDown(machine int) bool {
	return machine >= 0 && machine < len(v.e.machines) && !v.e.pool.InService(machine)
}

// DownMachines returns the number of currently crashed machines.
func (v View) DownMachines() int { return len(v.e.machines) - v.e.pool.InServiceMachines() }
