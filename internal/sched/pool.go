package sched

import (
	"fmt"
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
// The free index holds exactly the free VMs, twice: a doubly-linked list in
// freed order, threaded through the per-slot state (AnyCategory pops take
// its head), and per category a min-heap of slot indexes in which each VM
// records its position. Every write moves a VM into or out of both at
// once, so the index holds no stale entry and never needs cleaning.
//
// A FreePool is single-owner state: it is owned by exactly one simulation
// engine, or by one serving Placer under its mutex, and must not be shared
// across goroutines (the parallel experiment runner gives every concurrent
// simulation its own engine and therefore its own pool). The methods that
// write pool state or a caller's map and the whole-pool walk (Check)
// carry an atomic reentry guard that panics on concurrent access, so
// a violation of the ownership contract fails loudly instead of corrupting
// the list and heaps silently. The reads of a field or two (FreeSlots,
// FreeGen, Occupant, InService, InServiceMachines) cannot corrupt anything,
// so they skip the guard; the race detector still flags their concurrent
// use.
type FreePool struct {
	heaps map[string]*slotHeap
	// head and tail are the oldest and newest free VM of the freed-order
	// list, and booted its last VM still free since boot (stamp ≤ idle);
	// -1 when there is none.
	head, tail, booted int
	// state is the authoritative per-slot record, indexed by slotIndex and
	// grown on demand; a slot never mentioned is busy, unoccupied and out
	// of service.
	state []slotState
	// free is the number of free VMs, written or not, so FreeSlots is
	// O(1); a category's count is its heap's length (see Counts).
	free int
	// inService counts the machines in service.
	inService int
	freeSeq   int64
	inUse     int32
	// idle is the slot count NewIdleFreePool was built for, and untouched
	// the first of those slots that is still exactly as booted: in service,
	// unoccupied, free under EmptyCategory with freeGen idx+1, counted in
	// free, but not yet written into state, the list or the heaps.
	// materialize does that, in index order, when something first writes a
	// slot; building a pool is therefore O(1) however large the cluster.
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
	category string
	// freeGen is the freed-order stamp of the latest busy→free transition.
	// Recategorizations keep it, so a slot's position in the freed-order
	// list is the moment it last became free, not the last time its
	// neighbour changed.
	freeGen int64
	// app is the application running on the VM (EmptyCategory when none),
	// and inService whether its machine is in service; both VMs of a
	// machine carry the same inService.
	app       string
	inService bool
	free      bool
	// While the VM is free, prev and next are its neighbours in the
	// freed-order list (-1 at either end) and pos its position in its
	// category's heap.
	prev, next, pos int
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
// above every earlier slot's, so each joins the list right behind the last
// booted VM.
func (p *FreePool) materialize(idx int) {
	for ; p.untouched <= idx; p.untouched++ {
		i := p.untouched
		p.state = append(p.state, slotState{free: true, freeGen: int64(i + 1), inService: true})
		p.link(i, p.booted)
		p.booted = i
		p.heapPush(EmptyCategory, i)
	}
}

// link inserts free VM idx into the freed-order list behind VM after, or
// at the head when after is -1.
func (p *FreePool) link(idx, after int) {
	next := p.head
	if after >= 0 {
		next, p.state[after].next = p.state[after].next, idx
	} else {
		p.head = idx
	}
	if next >= 0 {
		p.state[next].prev = idx
	} else {
		p.tail = idx
	}
	p.state[idx].prev, p.state[idx].next = after, next
}

// unlink takes VM idx out of the freed-order list.
func (p *FreePool) unlink(idx int) {
	st := &p.state[idx]
	if st.prev >= 0 {
		p.state[st.prev].next = st.next
	} else {
		p.head = st.next
	}
	if st.next >= 0 {
		p.state[st.next].prev = st.prev
	} else {
		p.tail = st.prev
	}
	if p.booted == idx {
		p.booted = st.prev
	}
}

// slotHeap is a min-heap of slot indexes: the free VMs of one category,
// lowest index first for determinism. Each VM's slotState.pos records
// where it sits, so a VM leaves its heap in O(log n) without a search.
type slotHeap []int

// sift moves the VM at position i of h up or down until the heap order
// holds, recording every position it writes.
func (p *FreePool) sift(h slotHeap, i int) {
	idx := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] < idx {
			break
		}
		h[i], p.state[h[parent]].pos = h[parent], i
		i = parent
	}
	for {
		child := 2*i + 1
		if child+1 < len(h) && h[child+1] < h[child] {
			child++
		}
		if child >= len(h) || h[child] > idx {
			break
		}
		h[i], p.state[h[child]].pos = h[child], i
		i = child
	}
	h[i], p.state[idx].pos = idx, i
}

// heapPush adds free VM idx to its category's heap.
func (p *FreePool) heapPush(category string, idx int) {
	h, ok := p.heaps[category]
	if !ok {
		h = &slotHeap{}
		p.heaps[category] = h
	}
	*h = append(*h, idx)
	p.sift(*h, len(*h)-1)
}

// heapRemove takes VM idx out of its category's heap.
func (p *FreePool) heapRemove(category string, idx int) {
	h := p.heaps[category]
	i, last := p.state[idx].pos, len(*h)-1
	moved := (*h)[last]
	*h = (*h)[:last]
	if i < last {
		(*h)[i] = moved
		p.sift(*h, i)
	}
}

// NewFreePool returns an empty pool: no machine is in service until
// SetInService brings it in.
func NewFreePool() *FreePool {
	return &FreePool{heaps: map[string]*slotHeap{}, head: -1, tail: -1, booted: -1}
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
		head:      -1,
		tail:      -1,
		booted:    -1,
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
		// place in the list; only its heap changes.
		p.heapRemove(cur.category, idx)
		cur.category = category
		p.heapPush(category, idx)
		return
	}
	// Busy→free transition: stamp the freed order and join the list as the
	// newest. The next AnyCategory task takes the slot that has been free
	// the longest, so an idle cluster spreads tasks instead of repeatedly
	// packing the lowest-numbered machine.
	p.freeSeq++
	cur.free, cur.category, cur.freeGen = true, category, p.freeSeq
	p.free++
	p.link(idx, p.tail)
	p.heapPush(category, idx)
}

// setBusy takes a slot out of the free index; Pop, Occupy and
// SetInService are the ways it is reached.
func (p *FreePool) setBusy(idx int) {
	if st := p.at(idx); st.free {
		p.unlink(idx)
		p.heapRemove(st.category, idx)
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
// A category's count is its heap's length, plus the unwritten booted VMs
// for EmptyCategory.
func (p *FreePool) Counts(dst Counts) Counts {
	p.enter()
	defer p.leave()
	if dst == nil {
		dst = make(Counts, len(p.heaps))
	}
	clear(dst)
	for c, h := range p.heaps {
		n := len(*h)
		if c == EmptyCategory {
			n += p.idle - p.untouched
		}
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
	idx := -1
	if category == AnyCategory {
		// A booted-idle slot not yet in the list has been free longer than
		// anything freed since boot.
		if p.untouched < p.idle && p.booted < 0 {
			p.materialize(p.untouched)
		}
		idx = p.head
	} else {
		// Every booted-idle slot not yet in the empty heap has a higher
		// index than the ones that are: it is next once the heap runs dry.
		if category == EmptyCategory && p.untouched < p.idle && len(*p.heaps[EmptyCategory]) == 0 {
			p.materialize(p.untouched)
		}
		if h := p.heaps[category]; h != nil && len(*h) > 0 {
			idx = (*h)[0]
		}
	}
	if idx < 0 {
		if category == AnyCategory {
			return 0, 0, 0, fmt.Errorf("sched: no free VM")
		}
		return 0, 0, 0, fmt.Errorf("sched: no free VM with neighbour %q", category)
	}
	freeGen = p.state[idx].freeGen
	p.setBusy(idx)
	machine, slot = slotOf(idx)
	return machine, slot, freeGen, nil
}

// FreeGen returns the freed-order stamp of a free slot — the order
// Pop(AnyCategory) takes free slots in, oldest first (ok=false if the slot
// is not free).
func (p *FreePool) FreeGen(machine, slot int) (gen int64, ok bool) {
	st := p.peek(slotIndex(machine, slot))
	return st.freeGen, st.free
}

// Check re-derives the inventory rule by a full scan — which VMs are free,
// under which category, the free count and the machines in service — from
// occupancy and service alone, then walks every structure Pop and Counts
// read: the list must hold exactly the written free VMs in strictly
// increasing stamp order, booted VMs first, and each category's heap
// exactly the written VMs free under it, in heap order, each at the
// position it records. It returns an error naming the first place the
// incremental index disagrees. It is a pure read: a booted-idle slot is
// read as booted, not written out.
func (p *FreePool) Check() error {
	p.enter()
	defer p.leave()
	n := max(len(p.state), p.idle)
	n += n % SlotsPerMachine
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
			free++
		}
	}
	if free != p.free || inService != p.inService {
		return fmt.Errorf("sched: the index counts %d free VMs and %d machines in service; a scan finds %d and %d",
			p.free, p.inService, free, inService)
	}
	// The unwritten booted VMs sit, in no structure, between the written
	// booted VMs (stamps up to untouched) and those freed since boot
	// (stamps above idle); the list and the heaps hold the written ones.
	written := free - (p.idle - p.untouched)
	listed, last, lastBooted := 0, -1, -1
	for idx := p.head; idx >= 0; idx = p.state[idx].next {
		if idx >= len(p.state) || listed == written {
			return fmt.Errorf("sched: the freed-order list holds more than the %d written free VMs", written)
		}
		st := p.state[idx]
		if !st.free || st.prev != last || last >= 0 && st.freeGen <= p.state[last].freeGen ||
			st.freeGen > int64(p.untouched) && st.freeGen <= int64(p.idle) {
			m, s := slotOf(idx)
			return fmt.Errorf("sched: VM %d/%d (free=%v, stamp %d) is out of freed order in the list", m, s, st.free, st.freeGen)
		}
		if st.freeGen <= int64(p.idle) {
			lastBooted = idx
		}
		listed, last = listed+1, idx
	}
	if listed != written || p.tail != last || p.booted != lastBooted {
		return fmt.Errorf("sched: the freed-order list holds %d VMs, ends at %d and boots up to %d; the index has %d written free VMs, tail %d, booted %d",
			listed, last, lastBooted, written, p.tail, p.booted)
	}
	// Each heap entry is a distinct written VM free under the heap's
	// category, so the heaps hold every such VM when their sizes add up.
	heaped := 0
	for c, h := range p.heaps {
		heaped += len(*h)
		for i, idx := range *h {
			if idx < 0 || idx >= len(p.state) || p.state[idx].pos != i || !p.state[idx].free ||
				p.state[idx].category != c || i > 0 && (*h)[(i-1)/2] > idx {
				return fmt.Errorf("sched: entry %d of the %q heap, VM index %d, is out of place", i, c, idx)
			}
		}
	}
	if heaped != written {
		return fmt.Errorf("sched: the category heaps hold %d VMs; %d written VMs are free", heaped, written)
	}
	return nil
}
