package serve

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"tracon/internal/durable"
	"tracon/internal/obs"
)

// Journal integration: every placer state change is a durable.Event that
// commitEventsLocked (apply.go) applies and appends inside one p.mu
// critical section — WAL order therefore equals mutation order, and a
// request is acknowledged only after its events are (per the configured
// fsync policy) on disk. On boot, Server.recover rebuilds the placer from
// the newest snapshot plus the WAL suffix through that same function,
// re-queues orphaned in-flight tasks at the queue front, and verifies
// invariants before the daemon serves its first request.

// journal is the placer's nil-safe handle on a durable.Manager. An
// append failure (disk full, data dir yanked) poisons it permanently:
// the daemon keeps serving — availability over durability, loudly — but
// every subsequent append is dropped and /healthz reports the sticky
// error until the operator intervenes.
type journal struct {
	mgr    *durable.Manager
	logger *slog.Logger
	clock  obs.Clock

	mu        sync.Mutex
	err       error
	syncArmed bool // a syncTail timer is pending
}

// append journals a group of events as one commit point (one fsync under
// the always policy). Nil-safe; no-op once poisoned.
func (j *journal) append(evs ...durable.Event) {
	if j == nil || len(evs) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if _, err := j.mgr.Append(evs...); err != nil {
		j.fail("journal append failed; durability lost until restart", err)
	} else if d, due := j.mgr.SyncDue(); due && !j.syncArmed {
		j.syncArmed = true
		j.clock.AfterFunc(d, j.syncTail)
	}
}

// syncTail is the interval policy's timer: it syncs what the appends since
// the last sync left behind, so a burst is durable within one interval even
// when the daemon then goes idle. If an append synced meanwhile it re-arms
// instead, so the policy still syncs at most once per interval.
func (j *journal) syncTail() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncArmed = false
	if d, due := j.mgr.SyncDue(); due && d > 0 {
		j.syncArmed = true
		j.clock.AfterFunc(d, j.syncTail)
	} else if err := j.mgr.Sync(); err != nil && j.err == nil {
		j.fail("journal sync failed; durability lost until restart", err)
	}
}

// fail poisons the journal, loudly. Callers hold j.mu.
func (j *journal) fail(msg string, err error) {
	j.err = err
	if j.logger != nil {
		j.logger.LogAttrs(context.Background(), slog.LevelError, msg, slog.String("error", err.Error()))
	}
}

// Err returns the sticky append failure, if any.
func (j *journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// lastSeq reads the newest assigned sequence (0 without a journal).
func (j *journal) lastSeq() uint64 {
	if j == nil {
		return 0
	}
	return j.mgr.LastSeq()
}

// taskRef names one record inside a multi-task event.
func taskRef(rec *Placement) durable.TaskRef {
	return durable.TaskRef{Task: rec.ID, App: rec.App, Req: rec.ReqID, Dedup: rec.idem}
}

// admittedBefore orders placement IDs by admission: numerically for the
// "t-<n>" IDs the placer mints, lexically for anything else.
func admittedBefore(a, b string) bool {
	na, aok := durable.TaskSeq(a)
	nb, bok := durable.TaskSeq(b)
	if aok && bok {
		return na < nb
	}
	return a < b
}

// ExportState captures the placer's full serving state as a neutral
// snapshot struct, stamped with the journal's last assigned sequence.
// Taken under one lock hold, and placer events are only appended under
// that same lock, so the stamp covers exactly the mutations the state
// reflects.
func (p *Placer) ExportState() *durable.PlacerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exportStateLocked()
}

func (p *Placer) exportStateLocked() *durable.PlacerState {
	st := &durable.PlacerState{
		Seq:    p.journal.lastSeq(),
		NextID: p.nextID,
		Queue:  queueIDs(p.queue),
		Done:   append([]string(nil), p.done...),
	}
	st.Machines = make([]durable.MachineState, len(p.machines))
	for i := range p.machines {
		ms := durable.MachineState{State: p.machines[i].state, Slots: make([]durable.SlotState, SlotsPerMachine)}
		for j, task := range p.machines[i].tasks {
			app, _ := p.pool.Occupant(i, j)
			ms.Slots[j] = durable.SlotState{Task: task, App: app}
		}
		st.Machines[i] = ms
	}
	st.Placements = make([]durable.PlacementState, 0, len(p.placements))
	for _, rec := range p.placements {
		st.Placements = append(st.Placements, durable.PlacementState{
			ID: rec.ID, App: rec.App, Status: rec.Status,
			Machine: rec.Machine, Slot: rec.Slot, Neighbour: rec.Neighbour,
			PredRT: rec.PredictedRuntime, PredIOPS: rec.PredictedIOPS,
			Gen: rec.Generation, Error: rec.Error, Retries: rec.Retries,
			Req: rec.ReqID, Dedup: rec.idem,
			BG: append([]float64(nil), rec.bg...),
		})
	}
	sort.Slice(st.Placements, func(i, j int) bool { return admittedBefore(st.Placements[i].ID, st.Placements[j].ID) })
	if p.admission != nil {
		st.Rejected = p.admission.Rejected()
	}
	return st
}

// RestoreState replaces the placer's state with a recovered snapshot.
// Boot-time only: the placer must not be serving yet.
//
// The snapshot records occupancy, not the order VMs were freed in (freed
// order is not journaled either), so the pool is rebuilt here in machine
// index order and then follows whatever order WAL replay and the orphan
// requeue vacate slots in. Place events name (machine, slot) explicitly, so
// replay never consults that order; it only decides which idle VM the first
// AnyCategory picks after a restart take.
func (p *Placer) RestoreState(st *durable.PlacerState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(st.Machines) != len(p.machines) {
		return fmt.Errorf("serve: snapshot describes %d machines but the inventory has %d — the data dir belongs to a different cluster shape", len(st.Machines), len(p.machines))
	}
	placements := make(map[string]*Placement, len(st.Placements))
	dedup := map[string]string{}
	for _, ps := range st.Placements {
		rec := &Placement{
			ID: ps.ID, App: ps.App, Status: ps.Status,
			Machine: ps.Machine, Slot: ps.Slot, Neighbour: ps.Neighbour,
			PredictedRuntime: ps.PredRT, PredictedIOPS: ps.PredIOPS,
			Generation: ps.Gen, Error: ps.Error, Retries: ps.Retries,
			ReqID: ps.Req, idem: ps.Dedup,
			bg: append([]float64(nil), ps.BG...),
		}
		placements[rec.ID] = rec
		if rec.idem != "" {
			dedup[rec.idem] = rec.ID
		}
	}
	queue := make([]*Placement, len(st.Queue))
	for i, id := range st.Queue {
		if queue[i] = placements[id]; queue[i] == nil {
			return fmt.Errorf("serve: snapshot queues %q, which it holds no record of", id)
		}
	}
	p.resetInventoryLocked()
	for i, ms := range st.Machines {
		for j := 0; j < len(ms.Slots) && j < SlotsPerMachine; j++ {
			if vm := ms.Slots[j]; vm.Task != "" {
				if vm.App == "" {
					return fmt.Errorf("serve: snapshot puts task %q on VM %d/%d with no application", vm.Task, i, j)
				}
				p.machines[i].tasks[j] = vm.Task
				p.pool.Occupy(i, j, vm.App)
			}
		}
		p.setStateLocked(i, ms.State)
	}
	p.placements = placements
	p.dedup = dedup
	p.queue = queue
	p.done = append([]string(nil), st.Done...)
	p.nextID = st.NextID
	if p.admission != nil {
		p.admission.CountRejections(int(st.Rejected))
	}
	return nil
}

// Apply runs one event through the placer's commit point, exactly as the
// live operation that journaled it did. Every transition is guarded by the
// record's (or machine's) current state, so replaying a suffix that
// partially overlaps the snapshot — or the same suffix twice — converges
// on the same state. Recovery attaches the journal only after replay, so
// replayed history is not journaled again.
func (p *Placer) Apply(ev durable.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commitEventLocked(ev)
}

// RequeueOrphans sends every placed record back to the front of the
// queue in admission (numeric ID) order: the daemon that placed them
// died, so whatever was running in those VMs died with it — exactly the
// Kill eviction semantics, cluster-wide. The re-queue is itself
// journaled (EvRequeue) so a crash between recovery and the next
// snapshot replays it. Returns the number of orphans re-queued.
func (p *Placer) RequeueOrphans() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var orphans []*Placement
	for _, rec := range p.placements {
		if rec.Status == StatusPlaced {
			orphans = append(orphans, rec)
		}
	}
	if len(orphans) == 0 {
		return 0
	}
	sort.Slice(orphans, func(i, j int) bool { return admittedBefore(orphans[i].ID, orphans[j].ID) })
	refs := make([]durable.TaskRef, len(orphans))
	for i, rec := range orphans {
		refs[i] = taskRef(rec)
		p.tracer.release("evict_requeue", rec)
	}
	// A requeue of placed records cannot fail to apply.
	_ = p.commitEventLocked(durable.Event{
		Kind: durable.EvRequeue, Tasks: refs, Machine: -1, Slot: -1,
	})
	return len(orphans)
}

// recover rebuilds the placer from mgr's snapshot + WAL suffix and
// attaches the journal to the live paths. Called from New before the
// daemon serves; any error here aborts the boot — serving over a state
// that cannot be trusted is worse than not serving.
func (s *Server) recover(mgr *durable.Manager) error {
	t0 := s.clock.Now()
	info := mgr.Recovery()
	if info.Snapshot != nil {
		if err := s.placer.RestoreState(info.Snapshot); err != nil {
			return err
		}
	}
	for _, ev := range info.Events {
		if err := s.placer.Apply(ev); err != nil {
			return fmt.Errorf("serve: replaying journal: %w", err)
		}
	}
	// Attach the journal only after replay: Apply commits to whatever
	// journal is attached, and history must not be journaled twice.
	j := &journal{mgr: mgr, logger: s.logger, clock: s.clock}
	s.placer.journal, s.journal = j, j
	orphans := s.placer.RequeueOrphans()
	if err := s.placer.CheckInvariants(); err != nil {
		return fmt.Errorf("serve: post-recovery invariant check: %w", err)
	}
	// Compact immediately: fold the replayed suffix (and the orphan
	// requeue) into a fresh snapshot so the next boot replays only what
	// happens after this one.
	if err := mgr.WriteSnapshot(s.placer.ExportState()); err != nil {
		return fmt.Errorf("serve: post-recovery snapshot: %w", err)
	}
	s.models.OnSwap(func(gen uint64) {
		j.append(durable.Event{Kind: durable.EvGenSwap, Gen: gen, Machine: -1, Slot: -1})
	})
	mgr.AttachMetrics(s.reg)
	s.placer.mu.Lock()
	err := s.placer.drainLocked()
	s.placer.mu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: post-recovery drain: %w", err)
	}
	dur := s.clock.Since(t0)
	s.tracer.recovery(len(info.Events), orphans, dur)
	s.logger.LogAttrs(context.Background(), slog.LevelInfo, "recovered journal",
		slog.Uint64("last_seq", mgr.LastSeq()),
		slog.String("fsync", mgr.Fsync().String()), slog.Int("segments", info.Segments),
		slog.Int("replayed_events", len(info.Events)),
		slog.Int("orphans_requeued", orphans),
		slog.Bool("snapshot_loaded", info.Snapshot != nil),
		slog.Int("snapshots_skipped", info.SkippedSnapshots),
		slog.Bool("torn_tail_truncated", info.TornTail),
		slog.Float64("dur_ms", dur.Seconds()*1e3),
	)
	return nil
}

// SnapshotNow exports the placer state and writes one compacted snapshot
// (rotating the WAL segment). A no-op without a journal.
func (s *Server) SnapshotNow() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.mgr.WriteSnapshot(s.placer.ExportState())
}
