package sim

import "tracon/internal/sched"

// This file is the engine's fault-recovery machinery, active only when
// Config.Faults is set (see internal/fault for the plan format). Crashed
// machines evict their running tasks; evicted, probabilistically failed and
// timed-out attempts re-enter the backlog after the plan's backoff, bounded
// by its attempt budget. Every transition is reported to the observer as an
// OnFault event and counted in Results, and all of it is driven by heap events whose order is
// a pure function of the inputs — fault-injected runs stay byte-identical
// across worker counts and reproducible from the seed.

// Fault kinds reported in FaultInfo.Kind.
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

// machineDown crashes machine m: it leaves service (both VMs leave the
// free pool), its running attempts are evicted and queued for retry, and
// it draws off-power until it recovers.
func (e *Engine) machineDown(m int) {
	e.settle(m)
	e.pool.SetInService(m, false)
	e.results.MachineDowns++
	e.reportFault(FaultInfo{Kind: FaultMachineDown, Machine: m, Slot: -1})
	ms := &e.machines[m]
	for s := range ms.slots {
		if rt := ms.slots[s]; rt != nil {
			ms.slots[s] = nil
			e.pool.Vacate(m, s)
			e.results.Evictions++
			e.reportFault(FaultInfo{
				Kind: FaultEvict, Machine: m, Slot: s,
				TaskID: rt.task.ID, App: rt.task.App, Attempt: e.attempts[rt.task.ID],
			})
			e.retryOrLose(rt.task)
		}
	}
	e.settleEnergy(m) // the machine is now empty: off-power
}

// machineUp recovers machine m: both slots re-enter the free pool as an
// idle machine, stamped now so FIFO-over-VMs fairness treats them as the
// newest free slots.
func (e *Engine) machineUp(m int) {
	e.results.MachineUps++
	e.reportFault(FaultInfo{Kind: FaultMachineUp, Machine: m, Slot: -1})
	e.pool.SetInService(m, true)
	e.settleEnergy(m)
}

// evictAttempt ends the attempt running in (m, slot) without completing it
// (kind is FaultFail or FaultTimeout; crash evictions go through
// machineDown), frees the slot as a completion does, and queues the task
// for retry.
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
	e.reportFault(FaultInfo{
		Kind: kind, Machine: m, Slot: slot,
		TaskID: rt.task.ID, App: rt.task.App, Attempt: e.attempts[rt.task.ID],
	})
	e.pool.Vacate(m, slot)
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
		e.reportFault(FaultInfo{Kind: FaultLost, Machine: -1, Slot: -1, TaskID: t.ID, App: t.App, Attempt: made})
		return
	}
	delay := e.cfg.Faults.RetryDelay(made)
	e.results.Retries++
	e.reportFault(FaultInfo{
		Kind: FaultRetry, Machine: -1, Slot: -1,
		TaskID: t.ID, App: t.App, Attempt: made, Delay: delay,
	})
	e.push(event{time: e.now + delay, kind: evRetry, gen: int64(e.addExtra(t))})
}

// reportFault reports one fault transition to the observer, if any.
func (e *Engine) reportFault(f FaultInfo) {
	if e.cfg.Observer != nil {
		e.ev.Fault = f
		e.observe(OnFault)
	}
}
