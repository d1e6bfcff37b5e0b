package serve

import (
	"fmt"

	"tracon/internal/durable"
)

// The placement core is event-sourced. Every operation that changes a
// placement record, the backlog, the dedup index or the finished ring —
// live or replayed — is a durable.Event applied by one of the apply*
// bodies below, through dispatchLocked. A live operation decides under
// p.mu (dedup lookup, admission budget, ID minting, the model forecast),
// builds the events it journals, and hands them to commitEventsLocked;
// recovery hands it the events it read back. Live state therefore equals
// replayed state by construction, and the journal's commit point is one
// line of code.

// commitEventsLocked is the placer's single commit point. It applies the
// events of the group from evs[applied] on with the functions recovery
// replays them with, compacts the backlog, and stages the group for the
// hold's one journal append (Placer.unlock; one fsync under the always
// policy). Without a journal — in-memory mode, a follower, or recovery
// before the journal is attached — staging is a no-op and nothing else
// differs.
//
// A scheduling pass applies its place events itself, each as soon as its
// VM is popped, and commits them with applied = len(evs). If an apply
// fails, the events applied before it are still committed, so the journal
// never falls behind the state.
//
// evs is built on p.evbuf, the placer's reusable group buffer (the group
// would otherwise escape to the heap on every commit); it is valid until
// the next commit under the lock.
func (p *Placer) commitEventsLocked(evs []durable.Event, applied int) (err error) {
	n, sweep := applied, applied > 0 // a pass's applied events are places
	for ; n < len(evs); n++ {
		if err = p.dispatchLocked(&evs[n]); err != nil {
			break
		}
		sweep = sweep || evs[n].Kind == durable.EvPlace || evs[n].Kind == durable.EvFail
	}
	p.evbuf = evs[:0]
	if n == 0 {
		return err
	}
	evs = evs[:n]
	// Place and fail leave their record in the backlog and only change its
	// status; the entries go here, in ONE sweep per commit group. A
	// scheduling pass that places k tasks costs one pass over the backlog,
	// not k memmoves (replay commits one event per group, so it pays one
	// sweep per event — boot-time only).
	if sweep {
		kept := p.queue[:0]
		for _, rec := range p.queue {
			if rec.Status == StatusQueued {
				kept = append(kept, rec)
			}
		}
		clear(p.queue[len(kept):])
		p.queue = kept
	}
	p.journal.stage(evs)
	if p.onCommit != nil {
		p.onCommit(evs)
	}
	return err
}

// commitEventLocked commits a group of one.
func (p *Placer) commitEventLocked(ev durable.Event) error {
	return p.commitEventsLocked(append(p.evbuf[:0], ev), 0)
}

// dispatchLocked routes one event to its apply body. Every body is
// idempotent: it is guarded by the record's (or machine's) current state,
// so replaying a suffix that overlaps the snapshot, or the same suffix
// twice, converges on the same state.
func (p *Placer) dispatchLocked(ev *durable.Event) error {
	switch ev.Kind {
	case durable.EvAdmit:
		p.applyAdmit(durable.TaskRef{Task: ev.Task, App: ev.App, Req: ev.Req, Dedup: ev.Dedup})
	case durable.EvBatchAdmit:
		for _, t := range ev.Tasks {
			p.applyAdmit(t)
		}
	case durable.EvPlace:
		return p.applyPlace(ev)
	case durable.EvComplete:
		p.applyComplete(ev)
	case durable.EvFail:
		p.applyFail(ev)
	case durable.EvKill:
		return p.applyKill(ev)
	case durable.EvRequeue:
		p.applyRequeue(ev)
	case durable.EvDrain, durable.EvUndrain, durable.EvRevive:
		return p.applyMachine(ev)
	case durable.EvGenSwap:
		// Informational: a restarted daemon rebuilds its model library
		// independently of the dead one's generation counter.
	default:
		return fmt.Errorf("serve: unknown event kind %q at seq %d", ev.Kind, ev.Seq)
	}
	return nil
}

// applyAdmit creates a queued record at the back of the backlog and
// registers its idempotency key. IDs are minted from nextID, so the
// counter follows the largest ID admitted.
func (p *Placer) applyAdmit(t durable.TaskRef) {
	if t.Dedup != "" {
		p.dedup[t.Dedup] = t.Task
	}
	if n, ok := durable.TaskSeq(t.Task); ok && n > p.nextID {
		p.nextID = n
	}
	if _, ok := p.placements[t.Task]; ok {
		return
	}
	rec := &Placement{
		ID: t.Task, App: t.App, Status: StatusQueued,
		Machine: -1, Slot: -1, ReqID: t.Req, idem: t.Dedup,
	}
	p.placements[t.Task] = rec
	p.queue = append(p.queue, rec)
}

// applyPlace marks a queued record placed and occupies its VM; the commit
// sweeps it out of the backlog. The event's BG slice becomes the record's:
// neither is mutated in place, so they share one backing array.
func (p *Placer) applyPlace(ev *durable.Event) error {
	rec, ok := p.placements[ev.Task]
	if !ok || rec.Status != StatusQueued {
		return nil
	}
	if ev.Machine < 0 || ev.Machine >= len(p.machines) || ev.Slot < 0 || ev.Slot >= SlotsPerMachine {
		return fmt.Errorf("serve: place seq %d targets slot %d/%d outside the inventory", ev.Seq, ev.Machine, ev.Slot)
	}
	if p.machines[ev.Machine].state != MachineUp {
		// The machine was up when this event was journaled but is not at
		// this replay point — an overlapping replay already applied the
		// later kill/drain. Leave the task queued; re-applying the kill is
		// a no-op, so placing here would strand the task on a dead machine.
		return nil
	}
	if held := p.machines[ev.Machine].tasks[ev.Slot]; held != "" && held != ev.Task {
		return fmt.Errorf("serve: place seq %d targets slot %d/%d already holding %q", ev.Seq, ev.Machine, ev.Slot, held)
	}
	p.machines[ev.Machine].tasks[ev.Slot] = ev.Task
	p.pool.Occupy(ev.Machine, ev.Slot, rec.App)
	rec.Status = StatusPlaced
	rec.Machine = ev.Machine
	rec.Slot = ev.Slot
	rec.Neighbour = ev.Neighbour
	rec.PredictedRuntime = ev.PredRT
	rec.PredictedIOPS = ev.PredIOPS
	rec.Generation = ev.Gen
	rec.bg = ev.BG
	return nil
}

// applyComplete moves a placed record to completed and frees its VM.
func (p *Placer) applyComplete(ev *durable.Event) {
	rec, ok := p.placements[ev.Task]
	if !ok || rec.Status != StatusPlaced {
		return
	}
	p.releaseLocked(rec)
	rec.Status = StatusCompleted
	p.finishLocked(rec.ID)
}

// applyFail fails a queued record terminally; the commit sweeps it out of
// the backlog.
func (p *Placer) applyFail(ev *durable.Event) {
	rec, ok := p.placements[ev.Task]
	if !ok || rec.Status != StatusQueued {
		return
	}
	rec.Status = StatusFailed
	rec.Error = ev.Error
	p.finishLocked(rec.ID)
}

// applyKill takes a machine down and returns its in-flight tasks to the
// FRONT of the backlog in the event's order (slot order): they were
// admitted before anything still queued.
func (p *Placer) applyKill(ev *durable.Event) error {
	if ev.Machine < 0 || ev.Machine >= len(p.machines) {
		return fmt.Errorf("serve: kill seq %d targets machine %d outside the inventory", ev.Seq, ev.Machine)
	}
	m := &p.machines[ev.Machine]
	if m.state == MachineDown {
		return nil // already applied (or the machine died again after a revive)
	}
	p.setStateLocked(ev.Machine, MachineDown)
	front := p.evictListedLocked(ev.Tasks)
	// Anything still occupying the machine was placed there by later
	// replayed events than the event's eviction list knew about; a down
	// machine must end empty either way.
	for si, task := range m.tasks {
		if rec, ok := p.placements[task]; ok {
			p.evictLocked(rec)
			front = append(front, rec)
		} else if task != "" {
			m.tasks[si] = ""
			p.pool.Vacate(ev.Machine, si)
		}
	}
	p.queue = append(front, p.queue...)
	return nil
}

// applyRequeue returns the orphans a dead daemon left in flight to the
// front of the backlog, in the event's order (admission order).
func (p *Placer) applyRequeue(ev *durable.Event) {
	p.queue = append(p.evictListedLocked(ev.Tasks), p.queue...)
}

// applyMachine makes a drain, undrain or revive move if the machine is in
// the state the move starts from.
func (p *Placer) applyMachine(ev *durable.Event) error {
	if ev.Machine < 0 || ev.Machine >= len(p.machines) {
		return fmt.Errorf("serve: %s seq %d targets machine %d outside the inventory", ev.Kind, ev.Seq, ev.Machine)
	}
	if move := machineMoves[ev.Kind]; p.machines[ev.Machine].state == move[0] {
		p.setStateLocked(ev.Machine, move[1])
	}
	return nil
}

// evictListedLocked evicts each listed task that is still placed and
// returns the evicted records in list order, for the caller to put at the
// front of the backlog.
func (p *Placer) evictListedLocked(tasks []durable.TaskRef) []*Placement {
	front := make([]*Placement, 0, len(tasks))
	for _, t := range tasks {
		if rec, ok := p.placements[t.Task]; ok && rec.Status == StatusPlaced {
			p.evictLocked(rec)
			front = append(front, rec)
		}
	}
	return front
}

// evictLocked takes a placed record off its VM and back to the queued
// state with one more retry.
func (p *Placer) evictLocked(rec *Placement) {
	p.releaseLocked(rec)
	p.checked = 0 // its app may have left the census since it was placed
	rec.Status = StatusQueued
	rec.Machine = -1
	rec.Slot = -1
	rec.Neighbour = ""
	rec.PredictedRuntime = 0
	rec.PredictedIOPS = 0
	rec.bg = nil
	rec.Retries++
}

// releaseLocked frees the VM a placed record occupies, if the inventory
// still shows it there (replay may meet a slot a later event already
// cleared).
func (p *Placer) releaseLocked(rec *Placement) {
	if rec.Machine >= 0 && rec.Machine < len(p.machines) &&
		p.machines[rec.Machine].tasks[rec.Slot] == rec.ID {
		p.machines[rec.Machine].tasks[rec.Slot] = ""
		p.pool.Vacate(rec.Machine, rec.Slot)
	}
}

// finishLocked appends id to the finished ring, evicting the oldest
// finished record beyond the cap. An evicted record takes its dedup
// entry with it — the idempotency window is exactly the retention window.
func (p *Placer) finishLocked(id string) {
	p.done = append(p.done, id)
	for len(p.done) > p.doneCap {
		old := p.done[0]
		if rec, ok := p.placements[old]; ok && rec.idem != "" {
			delete(p.dedup, rec.idem)
		}
		delete(p.placements, old)
		p.done = p.done[1:]
	}
}
