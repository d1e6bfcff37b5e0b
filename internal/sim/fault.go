package sim

import "tracon/internal/sched"

// This file is the engine's fault-recovery machinery, active only when
// Config.Faults is set (see internal/fault for the plan format). Crashed
// machines evict their running tasks; evicted, probabilistically failed and
// timed-out attempts re-enter the backlog after the plan's backoff, bounded
// by its attempt budget. Every transition is traced through TraceFault and
// counted in Results, and all of it is driven by heap events whose order is
// a pure function of the inputs — fault-injected runs stay byte-identical
// across worker counts and reproducible from the seed.

// Fault kinds reported through Tracer.TraceFault.
const (
	// FaultFail is a probabilistic attempt failure at the moment the
	// attempt would have completed.
	FaultFail = "fail"
	// FaultTimeout is an attempt evicted at its per-attempt deadline.
	FaultTimeout = "timeout"
	// FaultEvict is an attempt orphaned by its machine crashing.
	FaultEvict = "evict"
	// FaultRetry is a re-placement entering the backoff delay.
	FaultRetry = "retry"
	// FaultLost is a task abandoned after exhausting its attempt budget.
	FaultLost = "lost"
	// FaultMachineDown and FaultMachineUp are machine crash/recover
	// transitions.
	FaultMachineDown = "machine_down"
	FaultMachineUp   = "machine_up"
)

// machineDown crashes machine m: running attempts are evicted and queued
// for retry, both pool slots leave the free pool, and the machine draws
// off-power until it recovers.
func (e *Engine) machineDown(m int) {
	e.settle(m)
	e.down[m] = true
	e.downCount++
	e.results.MachineDowns++
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TraceFault(e.now, FaultInfo{Kind: FaultMachineDown, Machine: m, Slot: -1})
	}
	ms := &e.machines[m]
	for s := range ms.slots {
		if rt := ms.slots[s]; rt != nil {
			ms.slots[s] = nil
			e.results.Evictions++
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.TraceFault(e.now, FaultInfo{
					Kind: FaultEvict, Machine: m, Slot: s,
					TaskID: rt.task.ID, App: rt.task.App, Attempt: e.attempts[rt.task.ID],
				})
			}
			e.retryOrLose(rt.task)
		}
		e.pool.SetBusy(m, s)
	}
	e.settleEnergy(m) // the machine is now empty: off-power
}

// machineUp recovers machine m: both slots re-enter the free pool as an
// idle machine, stamped now so FIFO-over-VMs fairness treats them as the
// newest free slots.
func (e *Engine) machineUp(m int) {
	e.down[m] = false
	e.downCount--
	e.results.MachineUps++
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TraceFault(e.now, FaultInfo{Kind: FaultMachineUp, Machine: m, Slot: -1})
	}
	for s := 0; s < vmsPerMachine; s++ {
		e.pool.SetFree(m, s, sched.EmptyCategory)
	}
	e.settleEnergy(m)
}

// evictAttempt ends the attempt running in (m, slot) without completing it
// (kind is FaultFail or FaultTimeout; crash evictions go through
// machineDown), frees the slot with the same pool bookkeeping as a
// completion, and queues the task for retry.
func (e *Engine) evictAttempt(m, slot int, kind string) {
	e.settle(m)
	ms := &e.machines[m]
	rt := ms.slots[slot]
	ms.slots[slot] = nil
	switch kind {
	case FaultFail:
		e.results.FailedAttempts++
	case FaultTimeout:
		e.results.Timeouts++
	}
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TraceFault(e.now, FaultInfo{
			Kind: kind, Machine: m, Slot: slot,
			TaskID: rt.task.ID, App: rt.task.App, Attempt: e.attempts[rt.task.ID],
		})
	}
	// The freed slot's category is the survivor's app; an idle machine is
	// empty-category on both slots (mirrors complete()).
	other := ms.slots[1-slot]
	if other != nil {
		e.pool.SetFree(m, slot, other.task.App)
	} else {
		e.pool.SetFree(m, slot, sched.EmptyCategory)
		if _, free := e.pool.Category(m, 1-slot); free {
			e.pool.SetFree(m, 1-slot, sched.EmptyCategory)
		}
	}
	e.reprice(m)
	e.settleEnergy(m)
	e.retryOrLose(rt.task)
}

// retryOrLose schedules the task's next attempt after the plan's backoff,
// or abandons it once the attempt budget is exhausted. The retried task
// waits in e.extra, and its event carries the backlog ref.
func (e *Engine) retryOrLose(t sched.Task) {
	made := e.attempts[t.ID]
	if !e.cfg.Faults.RetryAllowed(made + 1) {
		e.results.Lost++
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.TraceFault(e.now, FaultInfo{
				Kind: FaultLost, Machine: -1, Slot: -1,
				TaskID: t.ID, App: t.App, Attempt: made,
			})
		}
		return
	}
	delay := e.cfg.Faults.RetryDelay(made)
	e.results.Retries++
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TraceFault(e.now, FaultInfo{
			Kind: FaultRetry, Machine: -1, Slot: -1,
			TaskID: t.ID, App: t.App, Attempt: made, Delay: delay,
		})
	}
	e.push(event{time: e.now + delay, kind: evRetry, gen: int64(e.addExtra(t))})
}
