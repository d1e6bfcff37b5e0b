package sched

import "fmt"

// Backlog is a queue as Passes.Drain sees it, Task(0) at its head; the
// simulator and the daemon drain theirs through it. Decided reports a
// pass's batch length and placement count before its first pop. Place
// starts batch member pos on the VM just popped for it (freeGen is the
// VM's freed-order stamp) and must occupy that VM before it returns: the
// occupant sets the sibling VM's category, which the next pop reads.
// Passed reports which members started; the caller keeps the rest at its
// head, in order. A pass that fails ends the drain without Passed.
type Backlog interface {
	Len() int
	Task(i int) Task
	Decided(batch, placed int)
	Place(pos int, category string, machine, slot int, freeGen int64) error
	Passed(placed []bool)
}

// Passes holds the buffers a scheduling pass reuses.
type Passes struct {
	batch  []Task
	counts Counts
	placed []bool
}

// Drain runs scheduling passes until b is empty, no VM is free, or a pass
// places fewer tasks than it was offered. A pass offers s up to BatchSize
// tasks from the head, with their batch positions as IDs, once that many
// wait or the head has waited hold seconds by now.
func (ps *Passes) Drain(s Scheduler, pool *FreePool, b Backlog, now, hold float64) error {
	q := s.BatchSize()
	for n := b.Len(); n > 0 && pool.FreeSlots() > 0; n = b.Len() {
		if n < q && now-b.Task(0).Arrival < hold-1e-9 {
			return nil
		}
		ps.batch, ps.placed = ps.batch[:0], ps.placed[:0]
		for i := range min(q, n) {
			t := b.Task(i)
			t.ID = int64(i)
			ps.batch, ps.placed = append(ps.batch, t), append(ps.placed, false)
		}
		// Machines out of service are not capacity.
		load := Load{TotalSlots: pool.InServiceMachines() * SlotsPerMachine, Queued: n}
		ps.counts = pool.Counts(ps.counts)
		placements, err := s.Schedule(ps.batch, ps.counts, load)
		if err != nil {
			return err
		}
		b.Decided(len(ps.batch), len(placements))
		for _, pl := range placements {
			m, slot, freeGen, err := pool.PopTraced(pl.Category)
			if err != nil {
				return fmt.Errorf("sched: %s chose category %q with no free VM: %w", s.Name(), pl.Category, err)
			}
			if err := b.Place(int(pl.Task.ID), pl.Category, m, slot, freeGen); err != nil {
				return err
			}
			ps.placed[pl.Task.ID] = true
		}
		b.Passed(ps.placed)
		if len(placements) < len(ps.batch) {
			return nil
		}
	}
	return nil
}
