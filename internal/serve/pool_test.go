package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/sched"
)

// halfFullPlacer boots an in-memory MIOS daemon of the given size and
// places one task per machine's worth of slots (half the VMs), cycling
// through the library so every neighbour category is populated.
func halfFullPlacer(tb testing.TB, machines int) (*Placer, []string) {
	tb.Helper()
	s := newTestServer(tb, model.NLM, Config{Machines: machines, Policy: "mios", MaxQueue: -1, TraceCap: -1})
	apps := testLibrary(tb, model.NLM).Apps()
	p := s.Placer()
	batch := make([]string, 0, 64)
	for i := 0; i < machines; i++ {
		batch = append(batch, apps[i%len(apps)])
		if len(batch) == cap(batch) || i == machines-1 {
			outs, err := p.SubmitBatch(batch)
			if err != nil {
				tb.Fatal(err)
			}
			for _, o := range outs {
				if o.Err != nil || o.Placement.Status != StatusPlaced {
					tb.Fatalf("pre-fill: %+v", o)
				}
			}
			batch = batch[:0]
		}
	}
	if snap := p.Snapshot(); snap.FreeSlots != machines || snap.QueueDepth != 0 {
		tb.Fatalf("pre-fill left %+v, want %d free slots", snap, machines)
	}
	return p, apps
}

// submitCompleteSizes are the inventory sizes the per-request cost is
// tracked at: the testbed's, a rack's, and AGOCS's 12.5 k-machine cell.
var submitCompleteSizes = []int{8, 1000, 12500}

// BenchmarkPlacerSubmitComplete is one submit → complete cycle against a
// half-full inventory. With the free-slot index the cost must not grow
// with the machine count (TestPlacerCostFlatInMachines guards the ratio).
func BenchmarkPlacerSubmitComplete(b *testing.B) {
	for _, machines := range submitCompleteSizes {
		b.Run(fmt.Sprintf("m%d", machines), func(b *testing.B) {
			p, apps := halfFullPlacer(b, machines)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submitComplete(b, p, apps[i%len(apps)])
			}
		})
	}
}

// BenchmarkPlacerSubmitCompleteQueued is one complete → submit cycle on 64
// full machines under MIBS8 over a standing backlog of 512 or 4 096 tasks:
// the completion places one queued task on the VM it frees and the submit
// queues one more, so the depth holds. A hold that walked the whole
// backlog cost O(backlog) here.
func BenchmarkPlacerSubmitCompleteQueued(b *testing.B) {
	for _, queued := range []int{512, 4096} {
		b.Run(fmt.Sprintf("q%d", queued), func(b *testing.B) {
			s := newTestServer(b, model.NLM, Config{Machines: 64, Policy: "mibs", QueueLen: 8, MaxQueue: -1, TraceCap: -1})
			p, apps := s.Placer(), testLibrary(b, model.NLM).Apps()
			batch := make([]string, 64)
			for n := 0; n < 2*64+queued; n += len(batch) {
				for i := range batch {
					batch[i] = apps[(n+i)%len(apps)]
				}
				if _, err := p.SubmitBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			if snap := p.Snapshot(); snap.FreeSlots != 0 || snap.QueueDepth != queued {
				b.Fatalf("pre-fill left %+v", snap)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm := i % (2 * 64)
				if _, err := p.Complete(p.machines[vm/2].tasks[vm%2]); err != nil {
					b.Fatal(err)
				}
				if rec, err := p.SubmitKeyed(apps[i%len(apps)], "", ""); err != nil || rec.Status != StatusQueued {
					b.Fatalf("submit: %+v, %v", rec, err)
				}
			}
		})
	}
}

func submitComplete(tb testing.TB, p *Placer, app string) {
	rec, err := p.SubmitKeyed(app, "", "")
	if err != nil || rec.Status != StatusPlaced {
		tb.Fatalf("submit: %+v, %v", rec, err)
	}
	if _, err := p.Complete(rec.ID); err != nil {
		tb.Fatal(err)
	}
}

// TestPlacerSubmitCompleteAllocs is the deterministic half of the benchmark
// above, as a tier-1 gate: heap allocations per submit → complete cycle with
// no journal and no tracer attached. The commit path builds its events and
// the scheduling pass its batch and free counts on reusable buffers, and
// the place event shares the neighbour vector with the record; a rise here
// means an event, a closure, a map or a slice started escaping on the
// request path. A fresh counts map per pass cost 2 to 4 more.
func TestPlacerSubmitCompleteAllocs(t *testing.T) {
	for i, limit := range []float64{13, 13, 13} {
		machines := submitCompleteSizes[i]
		p, apps := halfFullPlacer(t, machines)
		n := 0
		got := testing.AllocsPerRun(2000, func() {
			submitComplete(t, p, apps[n%len(apps)])
			n++
		})
		if got > limit {
			t.Errorf("%d machines: %.0f allocs per submit+complete, limit %.0f", machines, got, limit)
		}
	}
}

// TestPlacerCostFlatInMachines holds the scaling claim: a submit → complete
// cycle at 12 500 machines costs under 3× one at 8 (it was ≈ 11× while the
// placer scanned its inventory six times a cycle). Each size is the best of
// several hot loops, so a stalled host inflates neither side.
func TestPlacerCostFlatInMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test: not under -short / -race")
	}
	perCycle := func(machines int) time.Duration {
		p, apps := halfFullPlacer(t, machines)
		const cycles = 2000
		best := time.Duration(1 << 62)
		for round := 0; round < 7; round++ {
			t0 := time.Now()
			for i := 0; i < cycles; i++ {
				submitComplete(t, p, apps[i%len(apps)])
			}
			if d := time.Since(t0) / cycles; d < best {
				best = d
			}
		}
		return best
	}
	small, big := perCycle(submitCompleteSizes[0]), perCycle(submitCompleteSizes[2])
	t.Logf("submit+complete: %v at %d machines, %v at %d (ratio %.2f)",
		small, submitCompleteSizes[0], big, submitCompleteSizes[2], float64(big)/float64(small))
	if big > 3*small {
		t.Fatalf("per-cycle cost grows with the inventory: %v at %d machines vs %v at %d",
			big, submitCompleteSizes[2], small, submitCompleteSizes[0])
	}
}

// TestFIFOTakesLongestFreeVM pins the slot-choice semantics the placer
// shares with the simulator: an AnyCategory pick takes the VM that has been
// free the longest, not the lowest-indexed one.
func TestFIFOTakesLongestFreeVM(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "fifo"})
	p := s.Placer()
	app := testLibrary(t, model.NLM).Apps()[0]
	placed, _ := fillCluster(t, p, app, 4, 0)
	// Boot stamps the VMs free in index order, so the fill is in index order.
	for i, rec := range placed {
		if rec.Machine != i/2 || rec.Slot != i%2 {
			t.Fatalf("fill task %d landed on %d/%d", i, rec.Machine, rec.Slot)
		}
	}
	// Free 1/1 first, then 0/0: the next two picks must follow that order.
	for _, i := range []int{3, 0} {
		if _, err := p.Complete(placed[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range [][2]int{{1, 1}, {0, 0}} {
		rec, err := p.SubmitKeyed(app, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if rec.Machine != want[0] || rec.Slot != want[1] {
			t.Fatalf("picked %d/%d, want the longest-free VM %d/%d", rec.Machine, rec.Slot, want[0], want[1])
		}
	}
}

// naivePlacer is the reference the placer's index is checked against: an
// event-sourced two-VM inventory whose every question (census, free slots,
// up machines, which VM a category resolves to) is answered by a full scan,
// as the placer itself did before it shared the simulator's pool. Recovery
// is modelled the way journal.go documents it: snapshot import re-stamps the
// free VMs in index order, replay applies the logged events (places name
// their VM), and the orphan requeue frees VMs in admission order.
type naivePlacer struct {
	state []string
	vm    [][SlotsPerMachine]string // occupant task ID, "" when free
	stamp [][SlotsPerMachine]int64  // freed order, meaningful on up machines
	seq   int64
	queue []string
	app   map[string]string // task ID → application
}

type naiveEvent struct {
	kind   string // admit, place, complete, kill, drain, undrain, revive, requeue
	id     string
	mi, si int
	ids    []string // requeue: the orphans, in admission order
}

func newNaivePlacer(machines int, app map[string]string) *naivePlacer {
	n := &naivePlacer{
		state: make([]string, machines),
		vm:    make([][SlotsPerMachine]string, machines),
		stamp: make([][SlotsPerMachine]int64, machines),
		app:   app,
	}
	for mi := range n.state {
		n.setState(mi, MachineUp)
	}
	return n
}

func (n *naivePlacer) vacate(mi, si int) {
	n.vm[mi][si] = ""
	if n.state[mi] == MachineUp {
		n.seq++
		n.stamp[mi][si] = n.seq
	}
}

// setState re-stamps the free VMs of a machine entering service: they are
// the newest free VMs, in slot order.
func (n *naivePlacer) setState(mi int, state string) {
	wasUp := n.state[mi] == MachineUp
	n.state[mi] = state
	for si, id := range n.vm[mi] {
		if !wasUp && state == MachineUp && id == "" {
			n.vacate(mi, si)
		}
	}
}

func (n *naivePlacer) find(id string) (mi, si int) {
	for mi := range n.vm {
		for si, occ := range n.vm[mi] {
			if occ == id {
				return mi, si
			}
		}
	}
	return -1, -1
}

// evict frees each task's VM in the order given and returns the tasks to
// the front of the queue.
func (n *naivePlacer) evict(ids []string) {
	for _, id := range ids {
		mi, si := n.find(id)
		n.vacate(mi, si)
	}
	n.queue = append(append([]string(nil), ids...), n.queue...)
}

func (n *naivePlacer) apply(ev naiveEvent) {
	switch ev.kind {
	case "admit":
		n.queue = append(n.queue, ev.id)
	case "place":
		n.vm[ev.mi][ev.si] = ev.id
		for i, q := range n.queue {
			if q == ev.id {
				n.queue = append(n.queue[:i:i], n.queue[i+1:]...)
				break
			}
		}
	case "complete":
		n.vacate(n.find(ev.id))
	case "kill":
		n.setState(ev.mi, MachineDown)
		var lost []string
		for _, id := range n.vm[ev.mi] {
			if id != "" {
				lost = append(lost, id)
			}
		}
		n.evict(lost)
	case "requeue":
		n.evict(ev.ids)
	case "drain":
		n.setState(ev.mi, MachineDrained)
	case "undrain", "revive":
		n.setState(ev.mi, MachineUp)
	}
}

// census scans for what the pool keeps incrementally.
func (n *naivePlacer) census() (counts sched.Counts, free, up int) {
	counts = sched.Counts{}
	for mi, st := range n.state {
		if st != MachineUp {
			continue
		}
		up++
		for si, id := range n.vm[mi] {
			if id == "" {
				counts[n.app[n.vm[mi][1-si]]]++
				free++
			}
		}
	}
	return counts, free, up
}

// pick resolves a category by scanning: the oldest stamp for AnyCategory,
// the lowest index for a neighbour application or an idle machine.
func (n *naivePlacer) pick(category string) (mi, si int) {
	mi, si = -1, -1
	for i, st := range n.state {
		if st != MachineUp {
			continue
		}
		for s, id := range n.vm[i] {
			switch {
			case id != "":
			case category == sched.AnyCategory:
				if mi < 0 || n.stamp[i][s] < n.stamp[mi][si] {
					mi, si = i, s
				}
			case n.app[n.vm[i][1-s]] == category:
				return i, s
			}
		}
	}
	return mi, si
}

// restoredFrom imports a snapshot into a freshly built reference (whose
// free VMs are stamped in index order): occupancy, states and queue. Freed
// order is deliberately not part of a snapshot.
func (n *naivePlacer) restoredFrom(snap *naivePlacer) {
	for mi := range snap.state {
		n.vm[mi] = snap.vm[mi]
		n.setState(mi, snap.state[mi])
	}
	n.queue = append([]string(nil), snap.queue...)
}

// TestPlacerMatchesNaiveScan drives random submit / complete / kill /
// drain / undrain / revive and crash + recover streams through a journaled
// placer and the scan-everything reference. After every op both must hold
// the same queue, census, free-slot and up-machine counts, and every
// placement must sit on the VM the reference's scan resolves its category
// to: the longest-free VM under fifo, the lowest-indexed match under mios.
func TestPlacerMatchesNaiveScan(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	apps := lib.Apps()
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		machines := 2 + rng.Intn(5)
		policy := []string{"fifo", "mios"}[seed%2]
		fs := durable.NewMemFS()
		boot := func() *Placer {
			mgr, err := durable.Open("data", durable.Options{FS: fs, Fsync: durable.FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(lib, Config{Machines: machines, Policy: policy, MaxQueue: -1, TraceCap: -1, Journal: mgr})
			if err != nil {
				t.Fatalf("seed %d: boot: %v", seed, err)
			}
			return s.Placer()
		}
		p := boot()
		appOf := map[string]string{"": sched.EmptyCategory}
		ref := newNaivePlacer(machines, appOf)
		var (
			snap = newNaivePlacer(machines, appOf) // the reference at the last boot
			log  []naiveEvent                      // and every event since
		)
		do := func(ev naiveEvent) {
			ref.apply(ev)
			log = append(log, ev)
		}
		// settle runs the reference's drain (the queue head takes a VM while
		// one is free) against the decisions the placer made, then compares
		// the two inventories.
		settle := func(op string) {
			t.Helper()
			for len(ref.queue) > 0 {
				if _, free, _ := ref.census(); free == 0 {
					break
				}
				id := ref.queue[0]
				rec, _ := p.Get(id)
				if rec.Status != StatusPlaced {
					t.Fatalf("seed %d %s: queue head %s is %s with VMs free", seed, op, id, rec.Status)
				}
				category := sched.AnyCategory
				if policy == "mios" {
					category = rec.Neighbour
				}
				if mi, si := ref.pick(category); mi != rec.Machine || si != rec.Slot {
					t.Fatalf("seed %d %s: %s (category %q) placed on %d/%d, the scan resolves %d/%d",
						seed, op, id, category, rec.Machine, rec.Slot, mi, si)
				}
				do(naiveEvent{kind: "place", id: id, mi: rec.Machine, si: rec.Slot})
			}
			if got := p.QueueIDs(); fmt.Sprint(got) != fmt.Sprint(ref.queue) {
				t.Fatalf("seed %d %s: queue %v, reference %v", seed, op, got, ref.queue)
			}
			counts, free, up := ref.census()
			p.mu.Lock()
			got, gotFree, gotUp := p.pool.Counts(nil), p.pool.FreeSlots(), p.pool.InServiceMachines()
			p.mu.Unlock()
			if gotFree != free || gotUp != up || fmt.Sprint(got) != fmt.Sprint(counts) {
				t.Fatalf("seed %d %s: index has census %v, %d free, %d up; a scan finds %v, %d, %d",
					seed, op, got, gotFree, gotUp, counts, free, up)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, op, err)
			}
		}
		placed := func() (ids []string) {
			for mi := range ref.vm {
				for _, id := range ref.vm[mi] {
					if id != "" {
						ids = append(ids, id)
					}
				}
			}
			sort.Slice(ids, func(i, j int) bool { return admittedBefore(ids[i], ids[j]) })
			return ids
		}

		for step := 0; step < 160; step++ {
			var (
				op  string
				err error
			)
			switch r := rng.Intn(100); {
			case r < 45:
				op = "submit"
				rec, serr := p.SubmitKeyed(apps[rng.Intn(len(apps))], "", "")
				if _, _, up := ref.census(); up == 0 && errors.Is(serr, ErrQueueFull) {
					continue // nothing in service: admission sheds everything
				}
				if err = serr; err == nil {
					appOf[rec.ID] = rec.App
					do(naiveEvent{kind: "admit", id: rec.ID})
				}
			case r < 75:
				ids := placed()
				if len(ids) == 0 {
					continue
				}
				op = "complete"
				id := ids[rng.Intn(len(ids))]
				_, err = p.Complete(id)
				do(naiveEvent{kind: "complete", id: id})
			case r < 94:
				mi := rng.Intn(machines)
				switch {
				case ref.state[mi] == MachineDown:
					op, err = "revive", p.Revive(mi)
				case rng.Intn(2) == 0:
					op = "kill"
					_, err = p.Kill(mi)
				case ref.state[mi] == MachineUp:
					op, err = "drain", p.Drain(mi)
				default:
					op, err = "undrain", p.Undrain(mi)
				}
				do(naiveEvent{kind: op, mi: mi})
			default:
				op = "crash"
				fs.Crash()
				p = boot()
				ref = newNaivePlacer(machines, appOf)
				ref.restoredFrom(snap)
				for _, ev := range log {
					ref.apply(ev)
				}
				ref.apply(naiveEvent{kind: "requeue", ids: placed()})
				snap, log = newNaivePlacer(machines, appOf), nil
				snap.restoredFrom(ref)
			}
			if err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
			settle(op)
		}
	}
}
