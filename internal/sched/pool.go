package sched

import (
	"fmt"
	"maps"
	"sync/atomic"
)

// FreePool is the cluster's placement inventory: which application runs on
// each VM, which machines are in service, and the index of free VMs that
// placement decisions resolve against. It is the one implementation of the
// inventory rule both the simulator and the serving daemon place by: a free
// VM's category is the application running on its sibling VM (EmptyCategory
// when the machine is idle), and a machine out of service offers nothing.
// Occupy, Vacate and SetInService keep that rule; Check re-derives it by a
// full scan. Pop resolves a Placement's category to a concrete (machine,
// slot), preferring the lowest-indexed slot for determinism. SetFree is the
// raw index write those methods are made of.
//
// Slots are kept in lazy min-heaps: recategorizations simply push a fresh
// entry and stale entries are discarded at pop time against the
// authoritative per-slot state. A heap that grows large and mostly stale
// (long runs never popping a category accumulate garbage) is compacted in
// place, so heap memory stays proportional to the live slot count.
//
// A FreePool is single-owner state: it is owned by exactly one simulation
// engine, or by one serving Placer under its mutex, and must not be shared
// across goroutines (the parallel experiment runner gives every concurrent
// simulation its own engine and therefore its own pool). The methods that
// write pool state or a caller's map and the whole-pool walks (Stats,
// Check) carry an atomic reentry guard that panics on concurrent access, so
// a violation of the ownership contract fails loudly instead of corrupting
// heaps silently. The reads of a field or two (FreeSlots, FreeGen,
// Occupant, InService, InServiceMachines) cannot corrupt anything, so they
// skip the guard; the race detector still flags their concurrent use.
type FreePool struct {
	heaps  map[string]*slotHeap
	global slotHeap
	// state is the authoritative per-slot record, indexed by slotIndex and
	// grown on demand; a slot never mentioned is busy, unoccupied and out
	// of service.
	state  []slotState
	counts Counts
	// free is Σ counts, kept beside it so FreeSlots is O(1).
	free int
	// inService counts the machines in service.
	inService int
	freeSeq   int64
	inUse     int32
	// idle is the slot count NewIdleFreePool was built for, and untouched
	// the first of those slots that is still exactly as booted: in service,
	// unoccupied, free under EmptyCategory with freeGen idx+1, counted in
	// counts, but not yet written into state or the heaps. materialize does
	// that, in index order, when something first writes a slot; building a
	// pool is therefore O(1) however large the cluster.
	idle, untouched int
}

// enter trips the single-owner guard; every guarded method must pair it
// with leave. It is not a lock — it never blocks — it only detects two
// goroutines inside the pool at once.
func (p *FreePool) enter() {
	if !atomic.CompareAndSwapInt32(&p.inUse, 0, 1) {
		panic("sched: FreePool used concurrently; it is single-owner state (give each engine its own pool)")
	}
}

func (p *FreePool) leave() { atomic.StoreInt32(&p.inUse, 0) }

type slotState struct {
	free     bool
	category string
	// freeGen is the freed-order stamp of the latest busy→free transition.
	// Recategorizations keep it, so a slot's position in the global FIFO is
	// the moment it last became free, not the last time its neighbour
	// changed. Global entries carry the stamp they were pushed with; an
	// entry whose stamp no longer matches is stale and rejected at pop.
	freeGen int64
	// app is the application running on the VM (EmptyCategory when none),
	// and inService whether its machine is in service; both VMs of a
	// machine carry the same inService.
	app       string
	inService bool
}

// SlotsPerMachine is the two-VM machine model the whole repository shares
// ("each physical machine supports two virtual machines"; Counts.take
// encodes it too); it makes slot indexes dense.
const SlotsPerMachine = 2

func slotIndex(machine, slot int) int {
	if machine < 0 || slot < 0 || slot >= SlotsPerMachine {
		panic(fmt.Sprintf("sched: no such VM %d/%d", machine, slot))
	}
	return machine*SlotsPerMachine + slot
}

func slotOf(idx int) (machine, slot int) { return idx / SlotsPerMachine, idx % SlotsPerMachine }

// sibling returns the slot index of the other VM on idx's machine.
func sibling(idx int) int { return idx ^ 1 }

// peek returns the state of VM idx without writing anything: a booted-idle
// slot reads as booted, a slot never mentioned as the zero state.
func (p *FreePool) peek(idx int) slotState {
	if idx >= p.untouched && idx < p.idle {
		return slotState{free: true, freeGen: int64(idx + 1), inService: true}
	}
	if idx < len(p.state) {
		return p.state[idx]
	}
	return slotState{}
}

// at returns the state of VM idx, growing the table to hold it.
func (p *FreePool) at(idx int) *slotState {
	if idx >= p.untouched && p.untouched < p.idle {
		p.materialize(min(idx, p.idle-1))
	}
	if idx >= len(p.state) {
		p.state = append(p.state, make([]slotState, idx+1-len(p.state))...)
	}
	return &p.state[idx]
}

// materialize writes out the booted-idle slots up to and including idx.
// Their stamps are below every later free's (freeSeq starts at idle) and
// above every earlier slot's, so entering the heaps late changes no order.
func (p *FreePool) materialize(idx int) {
	empty := p.heaps[EmptyCategory]
	for ; p.untouched <= idx; p.untouched++ {
		i := p.untouched
		p.state = append(p.state, slotState{free: true, freeGen: int64(i + 1), inService: true})
		p.global.push(slotEntry{idx: i, seq: int64(i + 1)})
		empty.push(slotEntry{idx: i})
	}
}

// slotEntry is one heap entry. A category heap's entries carry no category
// of their own: an entry is live while its slot is free under the category
// whose heap it sits in.
type slotEntry struct {
	idx int   // slotIndex of the VM
	seq int64 // freed-order stamp (0 in category heaps)
}

// slotHeap is a binary min-heap of slotEntry. It is typed rather than a
// container/heap.Interface so a push or pop does not box its entry: the
// serving daemon would pay for those allocations on every request. The
// order is total (equal entries are interchangeable), so the pop sequence
// does not depend on the sifting details.
type slotHeap []slotEntry

// less orders by freed-order when stamped (the global FIFO-over-VMs heap),
// else by (machine, slot) (category heaps, for determinism).
func (h slotHeap) less(i, j int) bool {
	if h[i].seq != h[j].seq {
		return h[i].seq < h[j].seq
	}
	return h[i].idx < h[j].idx
}

func (h *slotHeap) push(e slotEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum; the heap must not be empty.
func (h *slotHeap) pop() slotEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s[:n].down(0)
	*h = s[:n]
	return s[n]
}

// down sifts element i towards the leaves until the heap order holds.
func (h slotHeap) down(i int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if right := child + 1; right < len(h) && h.less(right, child) {
			child = right
		}
		if !h.less(child, i) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// heapify establishes the heap order over arbitrary contents.
func (h slotHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// NewFreePool returns an empty pool: no machine is in service until
// SetInService brings it in.
func NewFreePool() *FreePool {
	return &FreePool{heaps: map[string]*slotHeap{}, counts: Counts{}}
}

// NewIdleFreePool returns the pool of an idle cluster: every machine in
// service and every VM free under EmptyCategory, freed in index order. It
// behaves exactly as NewFreePool followed by SetInService(m, true) for each
// machine in index order, but costs nothing up front (see FreePool.idle): a
// serving daemon builds its whole inventory on every boot, and its restart
// time is a measured quantity.
func NewIdleFreePool(machines int) *FreePool {
	n := machines * SlotsPerMachine
	return &FreePool{
		heaps:     map[string]*slotHeap{EmptyCategory: {}},
		counts:    Counts{EmptyCategory: n},
		free:      n,
		inService: machines,
		freeSeq:   int64(n),
		idle:      n,
	}
}

// SetFree marks a slot free under the given neighbour category, adding or
// recategorizing as needed. It is the raw index write: it neither reads
// nor keeps the inventory rule (Occupy, Vacate and SetInService do).
func (p *FreePool) SetFree(machine, slot int, category string) {
	p.enter()
	defer p.leave()
	if category == AnyCategory {
		panic("sched: AnyCategory is not a real category")
	}
	p.setFree(slotIndex(machine, slot), category)
}

func (p *FreePool) setFree(idx int, category string) {
	cur := p.at(idx)
	if cur.free {
		if cur.category == category {
			return
		}
		// Recategorization: the slot keeps its freed-order stamp and its
		// existing global entry (which still carries the matching stamp), so
		// its position in the FIFO-over-VMs queue is unchanged. Only the
		// category heaps see a fresh entry.
		p.counts[cur.category]--
		cur.category = category
		p.counts[category]++
		p.pushCategory(idx, category)
		return
	}
	// Busy→free transition: stamp the freed order and enter the global FIFO.
	// The next AnyCategory task takes the slot that has been free the
	// longest, so an idle cluster spreads tasks instead of repeatedly
	// packing the lowest-numbered machine.
	p.freeSeq++
	cur.free, cur.category, cur.freeGen = true, category, p.freeSeq
	p.counts[category]++
	p.free++
	p.pushCategory(idx, category)
	p.global.push(slotEntry{idx: idx, seq: p.freeSeq})
	p.maybeCompactGlobal()
}

// pushCategory adds a category-heap entry and compacts the heap if stale
// entries dominate it.
func (p *FreePool) pushCategory(idx int, category string) {
	h, ok := p.heaps[category]
	if !ok {
		h = &slotHeap{}
		p.heaps[category] = h
	}
	h.push(slotEntry{idx: idx})
	p.maybeCompactCategory(category, h)
}

// setBusy takes a slot out of the free index; Pop, Occupy and
// SetInService are the ways it is reached.
func (p *FreePool) setBusy(idx int) {
	if st := p.at(idx); st.free {
		p.counts[st.category]--
		p.free--
		st.free, st.category, st.freeGen = false, EmptyCategory, 0
	}
}

// Occupy records app running on VM (machine, slot). On a machine in
// service the VM leaves the free index (a no-op after the Pop that chose
// it; replay occupies VMs it never popped) and a free sibling is
// recategorized under app. app must name an application.
func (p *FreePool) Occupy(machine, slot int, app string) {
	p.enter()
	defer p.leave()
	if app == EmptyCategory || app == AnyCategory {
		panic(fmt.Sprintf("sched: %q cannot occupy a VM", app))
	}
	idx := slotIndex(machine, slot)
	st := p.at(idx)
	st.app = app
	if !st.inService {
		return
	}
	p.setBusy(idx)
	if p.peek(sibling(idx)).free {
		p.setFree(sibling(idx), app)
	}
}

// Vacate records that VM (machine, slot) runs nothing. On a machine in
// service the VM re-enters the index as the newest free VM under its
// sibling's application; if the machine is now idle, both VMs are
// EmptyCategory. Vacating an unoccupied VM does nothing.
func (p *FreePool) Vacate(machine, slot int) {
	p.enter()
	defer p.leave()
	idx := slotIndex(machine, slot)
	if p.peek(idx).app == EmptyCategory {
		return
	}
	st := p.at(idx)
	st.app = EmptyCategory
	if !st.inService {
		return
	}
	neighbour := p.peek(sibling(idx)).app
	p.setFree(idx, neighbour)
	if neighbour == EmptyCategory {
		p.setFree(sibling(idx), EmptyCategory)
	}
}

// SetInService moves a machine into or out of service. Taking it out moves
// both VMs out of the free index, their occupants staying recorded;
// bringing it back returns its unoccupied VMs as the newest free VMs, in
// slot order.
func (p *FreePool) SetInService(machine int, in bool) {
	p.enter()
	defer p.leave()
	first := slotIndex(machine, 0)
	if p.peek(first).inService == in {
		return
	}
	if in {
		p.inService++
	} else {
		p.inService--
	}
	for idx := first; idx < first+SlotsPerMachine; idx++ {
		st := p.at(idx)
		st.inService = in
		if !in {
			p.setBusy(idx)
		} else if st.app == EmptyCategory {
			p.setFree(idx, p.peek(sibling(idx)).app)
		}
	}
}

// Occupant returns the application running on VM (machine, slot), with
// ok=false when the VM runs nothing.
func (p *FreePool) Occupant(machine, slot int) (app string, ok bool) {
	app = p.peek(slotIndex(machine, slot)).app
	return app, app != EmptyCategory
}

// InService reports whether the machine is in service.
func (p *FreePool) InService(machine int) bool {
	return p.peek(slotIndex(machine, 0)).inService
}

// InServiceMachines returns the number of machines in service.
func (p *FreePool) InServiceMachines() int { return p.inService }

// Counts clears dst, fills it with the per-category free counts (zero
// entries omitted) and returns it; a nil dst gets a fresh map. A caller
// that passes the same map every time allocates nothing once it has grown.
func (p *FreePool) Counts(dst Counts) Counts {
	p.enter()
	defer p.leave()
	if dst == nil {
		dst = make(Counts, len(p.counts))
	}
	clear(dst)
	for c, n := range p.counts {
		if n > 0 {
			dst[c] = n
		}
	}
	return dst
}

// FreeSlots returns the total number of free slots.
func (p *FreePool) FreeSlots() int { return p.free }

// Pop resolves a placement category to a concrete free slot and marks it
// busy. AnyCategory takes the slot that has been free the longest; a real
// category takes its lowest-indexed slot.
func (p *FreePool) Pop(category string) (machine, slot int, err error) {
	machine, slot, _, err = p.PopTraced(category)
	return machine, slot, err
}

// PopTraced is Pop plus the popped slot's freed-order stamp — the
// busy→free generation the FIFO-over-VMs queue ordered the slot by. The
// tracing layer records it so fairness can be re-derived offline from an
// event stream alone.
func (p *FreePool) PopTraced(category string) (machine, slot int, freeGen int64, err error) {
	p.enter()
	defer p.leave()
	if category == AnyCategory {
		for {
			// A booted-idle slot not yet in the heap has been free longer
			// than anything freed since boot.
			if p.untouched < p.idle && (len(p.global) == 0 || p.global[0].seq > int64(p.idle)) {
				p.materialize(p.untouched)
			}
			if len(p.global) == 0 {
				break
			}
			e := p.global.pop()
			// The stamp must match: a slot freed, made busy and freed again
			// leaves an older entry behind whose stamp no longer matches, and
			// honouring it would let the recently freed slot jump the
			// FIFO-over-VMs queue.
			if st := p.state[e.idx]; st.free && st.freeGen == e.seq {
				p.setBusy(e.idx)
				machine, slot = slotOf(e.idx)
				return machine, slot, st.freeGen, nil
			}
		}
		return 0, 0, 0, fmt.Errorf("sched: no free VM")
	}
	h, ok := p.heaps[category]
	if !ok {
		return 0, 0, 0, fmt.Errorf("sched: no free VM with neighbour %q", category)
	}
	for {
		// Every booted-idle slot not yet in the empty heap has a higher
		// index than the ones that are: it is next once the heap runs dry.
		if len(*h) == 0 && category == EmptyCategory && p.untouched < p.idle {
			p.materialize(p.untouched)
		}
		if len(*h) == 0 {
			break
		}
		e := h.pop()
		if st := p.state[e.idx]; st.free && st.category == category {
			p.setBusy(e.idx)
			machine, slot = slotOf(e.idx)
			return machine, slot, st.freeGen, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("sched: no free VM with neighbour %q", category)
}

// FreeGen returns the freed-order stamp of a free slot — the order
// Pop(AnyCategory) takes free slots in, oldest first (ok=false if the slot
// is not free).
func (p *FreePool) FreeGen(machine, slot int) (gen int64, ok bool) {
	st := p.peek(slotIndex(machine, slot))
	return st.freeGen, st.free
}

// Check re-derives the inventory rule by a full scan — which VMs are free,
// under which category, the per-category and total free counts and the
// machines in service — from occupancy and service alone, and returns an
// error naming the first place the incremental index disagrees. It is a
// pure read: a booted-idle slot is read as booted, not written out.
func (p *FreePool) Check() error {
	p.enter()
	defer p.leave()
	n := max(len(p.state), p.idle)
	n += n % SlotsPerMachine
	unseen := maps.Clone(p.counts) // what the index counts, less what the scan finds
	free, inService := 0, 0
	for idx := 0; idx < n; idx++ {
		st, sib := p.peek(idx), p.peek(sibling(idx))
		m, s := slotOf(idx)
		if st.inService != sib.inService {
			return fmt.Errorf("sched: the VMs of machine %d disagree on whether it is in service", m)
		}
		if s == 0 && st.inService {
			inService++
		}
		want := st.inService && st.app == EmptyCategory
		if st.free != want || want && st.category != sib.app {
			return fmt.Errorf("sched: VM %d/%d is free=%v under %q, but occupancy makes it free=%v under %q",
				m, s, st.free, st.category, want, sib.app)
		}
		if st.free {
			unseen[st.category]--
			free++
		}
	}
	if free != p.free || inService != p.inService {
		return fmt.Errorf("sched: the index counts %d free VMs and %d machines in service; a scan finds %d and %d",
			p.free, p.inService, free, inService)
	}
	for c, k := range unseen {
		if k != 0 {
			return fmt.Errorf("sched: the index counts %d free VMs under %q, %d more than a scan finds", p.counts[c], c, k)
		}
	}
	return nil
}

// PoolStats reports the pool's internal sizes, for observability and the
// bounded-garbage tests.
type PoolStats struct {
	// FreeSlots is the number of live free slots.
	FreeSlots int
	// GlobalHeapLen is the global FIFO heap's length, stale entries
	// included.
	GlobalHeapLen int
	// CategoryHeapLen is the summed length of all category heaps, stale
	// entries included.
	CategoryHeapLen int
	// Categories is the number of category heaps ever created.
	Categories int
}

// Stats returns the current PoolStats.
func (p *FreePool) Stats() PoolStats {
	p.enter()
	defer p.leave()
	s := PoolStats{FreeSlots: p.free, GlobalHeapLen: len(p.global), Categories: len(p.heaps)}
	for _, h := range p.heaps {
		s.CategoryHeapLen += len(*h)
	}
	return s
}

// compactMinLen mirrors the simulation engine's backlog-compaction
// heuristic: a heap is rebuilt only once it is both large in absolute terms
// and dominated by stale entries, so compaction cost amortizes to O(1) per
// push.
const compactMinLen = 4096

// maybeCompactGlobal rebuilds the global heap keeping only entries whose
// freed-order stamp still matches the authoritative slot state.
func (p *FreePool) maybeCompactGlobal() {
	if len(p.global) <= compactMinLen || len(p.global) <= 2*p.free {
		return
	}
	keep := p.global[:0]
	for _, e := range p.global {
		if st := p.state[e.idx]; st.free && st.freeGen == e.seq {
			keep = append(keep, e)
		}
	}
	p.global = keep
	p.global.heapify()
}

// maybeCompactCategory rebuilds one category heap, dropping stale entries
// and deduplicating live ones (a slot re-freed under the same category can
// legitimately appear twice).
func (p *FreePool) maybeCompactCategory(category string, h *slotHeap) {
	live := p.counts[category]
	if live < 0 {
		live = 0
	}
	if len(*h) <= compactMinLen || len(*h) <= 2*live {
		return
	}
	seen := make(map[int]bool, live)
	keep := (*h)[:0]
	for _, e := range *h {
		if st := p.state[e.idx]; st.free && st.category == category && !seen[e.idx] {
			seen[e.idx] = true
			keep = append(keep, e)
		}
	}
	*h = keep
	h.heapify()
}
