package sim

import (
	"time"

	"tracon/internal/sched"
)

// This file is the engine's observability surface: an Observer receives
// synchronous callbacks at every interesting point of a run, with a View
// handle for read-only inspection of the engine's internals. A nil
// Config.Observer costs nothing — every hook site is guarded by a nil
// check — and a non-nil observer must not perturb the simulation: all View
// accessors are pure reads, and the engine feeds observers data it computes
// anyway. The PR-1 determinism golden tests run with observers attached to
// enforce this.

// EventKind labels a processed simulation event for observers.
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

// PopInfo describes one free-pool resolution performed by the engine.
type PopInfo struct {
	// Category is the placement category that was resolved.
	Category string
	// Machine/Slot is the slot the pool returned.
	Machine, Slot int
	// FreeGen is the popped slot's freed-order stamp (the busy→free
	// generation that positions it in the pool's FIFO-over-VMs queue).
	FreeGen int64
	// OldestMachine/OldestSlot is the pool's longest-free slot computed
	// immediately before the pop; valid only when OldestOK and only for
	// AnyCategory pops (it is what FIFO-over-VMs fairness demands the pop
	// return).
	OldestMachine, OldestSlot int
	OldestOK                  bool
}

// Completion describes one finished task for observers.
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

// ScheduleInfo describes one invocation of the scheduling policy.
type ScheduleInfo struct {
	// Batch is the number of tasks offered to the policy.
	Batch int
	// Placed is the number of placements the policy emitted.
	Placed int
	// Wall is the policy's decision latency in wall-clock time. It is
	// measured only when an observer is attached and is inherently
	// nondeterministic; deterministic metric exports must exclude it.
	Wall time.Duration
}

// Observer receives simulation lifecycle callbacks. All methods run
// synchronously on the engine's goroutine in event order; implementations
// must treat the View as read-only. A non-nil error aborts the run and is
// returned from Engine.Run — that is how the invariant auditor turns a
// violation into a loud failure.
type Observer interface {
	// OnEvent fires after each event has been processed and the subsequent
	// scheduling pass has finished; engine state is consistent here.
	OnEvent(v View, kind EventKind, now float64) error
	// OnComplete fires for every completed task, before pool bookkeeping
	// for the freed slot.
	OnComplete(v View, c Completion) error
	// OnPop fires after each free-pool resolution (the popped slot is
	// already busy in the pool; the task is not yet placed on the machine).
	OnPop(v View, p PopInfo) error
	// OnSchedule fires after each scheduling-policy invocation.
	OnSchedule(v View, s ScheduleInfo) error
	// OnDone fires once when the run ends, after final energy settlement.
	OnDone(v View, res *Results) error
}

// View is a read-only window into a running engine for observers.
type View struct{ e *Engine }

// Now returns the current simulation time.
func (v View) Now() float64 { return v.e.now }

// Machines returns the cluster size.
func (v View) Machines() int { return len(v.e.machines) }

// TotalSlots returns the cluster's VM count.
func (v View) TotalSlots() int { return len(v.e.machines) * vmsPerMachine }

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
	if machine < 0 || machine >= len(v.e.machines) || slot < 0 || slot >= vmsPerMachine {
		return "", 0, false
	}
	rt := v.e.machines[machine].slots[slot]
	if rt == nil {
		return "", 0, false
	}
	return rt.task.App, rt.workLeft, true
}

// PoolCategory returns the free pool's category for (machine, slot), with
// ok=false when the pool does not consider the slot free.
func (v View) PoolCategory(machine, slot int) (string, bool) {
	return v.e.pool.Category(machine, slot)
}

// PoolCounts returns a copy of the pool's per-category free counts.
func (v View) PoolCounts() sched.Counts { return v.e.pool.Counts(nil) }

// PoolStats returns the pool's internal sizes.
func (v View) PoolStats() sched.PoolStats { return v.e.pool.Stats() }

// MachineDown reports whether the machine is currently crashed under the
// run's fault plan (always false in fault-free runs).
func (v View) MachineDown(machine int) bool {
	return v.e.down != nil && machine >= 0 && machine < len(v.e.down) && v.e.down[machine]
}

// DownMachines returns the number of currently crashed machines.
func (v View) DownMachines() int { return v.e.downCount }
