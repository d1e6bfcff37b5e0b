package sched

import (
	"fmt"
)

// New builds the named policy: "fifo", "mios", "mibs" or "mix". queueLen
// is the batch length of mibs and mix; scorer is shared by the three
// interference-aware policies and ignored by fifo.
func New(policy string, queueLen int, scorer *Scorer) (Scheduler, error) {
	switch policy {
	case "fifo":
		return FIFO{}, nil
	case "mios":
		return &MIOS{Scorer: scorer}, nil
	case "mibs":
		return &MIBS{Scorer: scorer, QueueLen: queueLen}, nil
	case "mix":
		return &MIX{Scorer: scorer, QueueLen: queueLen}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", policy)
	}
}

// FIFO is the paper's baseline: tasks go to free VMs in first-in,
// first-out order, with no regard for interference.
type FIFO struct{}

// Name implements Scheduler.
func (FIFO) Name() string { return "FIFO" }

// BatchSize implements Scheduler: FIFO dispatches immediately.
func (FIFO) BatchSize() int { return 1 }

// Schedule implements Scheduler: each task takes the next free VM in index
// order (AnyCategory placements are resolved by the executor).
func (FIFO) Schedule(batch []Task, counts Counts, _ Load) ([]Placement, error) {
	free := counts.Total()
	var out []Placement
	for _, t := range batch {
		if free <= 0 {
			break
		}
		out = append(out, Placement{Task: t, Category: AnyCategory})
		free--
	}
	return out, nil
}

// MIOS is the minimum interference online scheduler (Algorithm 1): each
// incoming task is immediately dispatched to the VM with the best
// predicted performance.
type MIOS struct {
	Scorer *Scorer
}

// Name implements Scheduler.
func (m *MIOS) Name() string { return "MIOS" + m.Scorer.Objective().String() }

// BatchSize implements Scheduler: online, no batching.
func (m *MIOS) BatchSize() int { return 1 }

// Schedule implements Scheduler.
func (m *MIOS) Schedule(batch []Task, counts Counts, load Load) ([]Placement, error) {
	var buf passBuf
	p, err := m.Scorer.newPass(batch, counts, load, &buf)
	if err != nil || len(batch) == 0 {
		return nil, err
	}
	var dbuf [smallPass]decision
	ds := dbuf[:0]
	for pos, a := range p.apps {
		cat, ok, err := p.placeOne(a)
		if err != nil {
			return nil, err
		}
		if !ok {
			break // no free VM; the rest of the batch waits too
		}
		ds = append(ds, decision{pos, cat})
	}
	return p.placements(batch, ds), nil
}

// MIBS is the minimum interference batch scheduler (Algorithm 2), built on
// the Min-Min heuristic [17]: the queued task with the best achievable
// placement goes first, then the queued task with the least mutual
// interference against it joins it, and the pair leaves the queue.
type MIBS struct {
	Scorer *Scorer
	// QueueLen is the batch size (the paper evaluates 2, 4 and 8).
	QueueLen int
}

// Name implements Scheduler, e.g. "MIBS8-RT".
func (m *MIBS) Name() string {
	return fmt.Sprintf("MIBS%d-%s", m.QueueLen, m.Scorer.Objective())
}

// BatchSize implements Scheduler.
func (m *MIBS) BatchSize() int {
	if m.QueueLen < 1 {
		return 1
	}
	return m.QueueLen
}

// Schedule implements Scheduler (Algorithm 2 / the Min-Min heuristic
// [17]).
func (m *MIBS) Schedule(batch []Task, counts Counts, load Load) ([]Placement, error) {
	var buf passBuf
	p, err := m.Scorer.newPass(batch, counts, load, &buf)
	if err != nil || len(batch) == 0 {
		return nil, err
	}
	var dbuf [smallPass]decision
	ds, err := p.minMin(-1, dbuf[:0])
	if err != nil {
		return nil, err
	}
	return p.placements(batch, ds), nil
}

// minMin runs Algorithm 2 over the batch, appending its decisions to ds.
// The first "Min" evaluates every queued task's best VM; the task with the
// overall minimum predicted score is placed first (this is what makes the
// batch scheduler beat MIOS when VMs free up one at a time: the batch picks
// the *task that fits the opening*, the online scheduler is stuck with the
// head). Its least-interfering companion follows. A rotation rot >= 0 makes
// batch position rot the first head instead of the Min-Min choice, the
// rest queued in batch order; MIX uses it (Algorithm 3).
func (p *pass) minMin(rot int, ds []decision) ([]decision, error) {
	n, queue := p.t.n, p.queue
	for i := range queue {
		queue[i] = i
	}
	if rot >= 0 {
		copy(queue[1:], queue[:rot])
		queue[0] = rot
	}
	for first := true; len(queue) > 0; first = false {
		// candidate1: the queued task with the best achievable placement.
		headIdx, headScore := -1, 0.0
		if rot >= 0 && first {
			headIdx = 0
		} else {
			for i, pos := range queue {
				a := p.apps[pos]
				_, sc, ok := p.best(a, p.emptyScore(a))
				if ok && (headIdx < 0 || sc < headScore-1e-12) {
					headIdx, headScore = i, sc
				}
			}
		}
		if headIdx < 0 {
			break // cluster full
		}
		head := p.apps[queue[headIdx]]
		c1, ok, err := p.placeOne(head)
		if err != nil || !ok {
			return ds, err
		}
		ds = append(ds, decision{queue[headIdx], c1})
		queue = append(queue[:headIdx], queue[headIdx+1:]...)
		if len(queue) == 0 {
			break
		}

		// candidate2: the queued task with the least interference against
		// candidate1 relative to its opportunity cost. Raw mutual
		// interference alone is a trap: two no-I/O tasks always look like
		// the best pair, which wastes gentle partners on tasks that did not
		// need them and leaves the heavy tasks to collide at the end of the
		// batch. The score therefore subtracts the candidate's mean pairing
		// cost against the whole batch, so a head prefers the partner that
		// is cheapest *relative to what that partner would cost anyone else*.
		bestIdx, bestScore := -1, 0.0
		for i, pos := range queue {
			a := p.apps[pos]
			if sc := p.t.score[a*n+head] - p.mean[a]; bestIdx < 0 || sc < bestScore-1e-12 {
				bestIdx, bestScore = i, sc
			}
		}
		comp := p.apps[queue[bestIdx]]
		// The companion is committed next to the head when the head opened a
		// fresh machine AND the pairing actually beats the companion's own
		// empty-machine option under the expected load — otherwise it gets
		// its own MIOS placement (in a half-empty cluster, spreading wins).
		commit := false
		if c1 == 0 && p.count[head] > 0 {
			commit = p.count[0] == 0 || p.t.score[comp*n+head] <= p.emptyScore(comp)
		}
		c2 := head
		if commit {
			if err := p.take(head, comp); err != nil {
				return ds, err
			}
		} else if c2, ok, err = p.placeOne(comp); err != nil || !ok {
			return ds, err
		}
		ds = append(ds, decision{queue[bestIdx], c2})
		queue = append(queue[:bestIdx], queue[bestIdx+1:]...)
	}
	return ds, nil
}

// MIX (Algorithm 3) tries every queued task as the head of a hypothetical
// MIBS run, keeps the assignment with the best total predicted score, and
// executes it. It trades the highest scheduling cost for the best
// potential decisions.
type MIX struct {
	Scorer   *Scorer
	QueueLen int
}

// Name implements Scheduler, e.g. "MIX8-RT".
func (m *MIX) Name() string {
	return fmt.Sprintf("MIX%d-%s", m.QueueLen, m.Scorer.Objective())
}

// BatchSize implements Scheduler.
func (m *MIX) BatchSize() int {
	if m.QueueLen < 1 {
		return 1
	}
	return m.QueueLen
}

// Schedule implements Scheduler (Algorithm 3). Candidate assignments are
// the plain Min-Min MIBS run plus one run per rotation in which that task
// is forced to be the first head ("gives every job a chance to be the
// first job in the queue"), each on its own copy of the counts.
func (m *MIX) Schedule(batch []Task, counts Counts, load Load) ([]Placement, error) {
	var buf passBuf
	p, err := m.Scorer.newPass(batch, counts, load, &buf)
	if err != nil || len(batch) == 0 {
		return nil, err
	}
	var baseBuf [smallPass]int
	base, free := fit(baseBuf[:], len(p.count)), p.free
	copy(base, p.count)
	var trialBuf, bestBuf [smallPass]decision
	trial, best, bestScore := trialBuf[:0], bestBuf[:0], 0.0
	for rot := -1; rot < len(batch); rot++ {
		copy(p.count, base)
		p.free = free
		if trial, err = p.minMin(rot, trial[:0]); err != nil {
			return nil, err
		}
		sc := 0.0
		for _, d := range trial {
			sc += p.t.score[p.apps[d.pos]*p.t.n+d.cat]
		}
		// Prefer assignments that place more tasks; among equals, the best
		// total predicted score wins. Ties keep the earliest rotation.
		if rot < 0 || len(trial) > len(best) || (len(trial) == len(best) && sc < bestScore-1e-12) {
			best, bestScore = append(best[:0], trial...), sc
		}
	}
	return p.placements(batch, best), nil
}
