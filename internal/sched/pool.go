package sched

import (
	"fmt"
	"sync/atomic"
)

// FreePool tracks every free VM slot in the cluster, bucketed by the
// application occupying the machine's other slot. It resolves Placements
// (which name only a category) to concrete (machine, slot) pairs,
// preferring the lowest-indexed slot for determinism.
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
// write pool state or a caller's map (SetFree, SetBusy, Pop, PopTraced and
// Counts) and the whole-pool walks (OldestFree, Stats) carry an atomic
// reentry guard that panics on concurrent access, so a violation of the
// ownership contract fails loudly instead of corrupting heaps silently.
// FreeSlots and Category read a field or two and cannot corrupt anything,
// so they skip the guard; they are the engine's per-event reads, and the
// race detector still flags their concurrent use.
type FreePool struct {
	heaps  map[string]*slotHeap
	global slotHeap
	// state is the authoritative per-slot record, indexed by slotIndex and
	// grown on demand; a slot never mentioned is busy.
	state  []slotState
	counts Counts
	// free is Σ counts, kept beside it so FreeSlots is O(1).
	free    int
	freeSeq int64
	inUse   int32
	// idle is the slot count NewIdleFreePool was built for, and untouched
	// the first of those slots that is still exactly as booted: free under
	// EmptyCategory with freeGen idx+1, counted in counts, but not yet
	// written into state or the heaps. materialize does that, in index
	// order, when something first reaches a slot; building a pool is
	// therefore O(1) however large the cluster.
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
}

// slotsPerMachine is the two-VM machine model the whole repository shares
// (Counts.take encodes it too); it makes slot indexes dense.
const slotsPerMachine = 2

func slotIndex(machine, slot int) int {
	if machine < 0 || slot < 0 || slot >= slotsPerMachine {
		panic(fmt.Sprintf("sched: no such VM %d/%d", machine, slot))
	}
	return machine*slotsPerMachine + slot
}

func slotOf(idx int) (machine, slot int) { return idx / slotsPerMachine, idx % slotsPerMachine }

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
		p.state = append(p.state, slotState{free: true, freeGen: int64(i + 1)})
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

// NewFreePool returns an empty pool.
func NewFreePool() *FreePool {
	return &FreePool{heaps: map[string]*slotHeap{}, counts: Counts{}}
}

// NewIdleFreePool returns the pool of an idle cluster: every VM of the
// given number of machines free under EmptyCategory, freed in index order.
// It behaves exactly as NewFreePool followed by one SetFree per slot in
// index order, but costs nothing up front (see FreePool.idle): a serving
// daemon builds its whole inventory on every boot, and its restart time is
// a measured quantity.
func NewIdleFreePool(machines int) *FreePool {
	n := machines * slotsPerMachine
	return &FreePool{
		heaps:   map[string]*slotHeap{EmptyCategory: {}},
		counts:  Counts{EmptyCategory: n},
		free:    n,
		freeSeq: int64(n),
		idle:    n,
	}
}

// SetFree marks a slot free under the given neighbour category, adding or
// recategorizing as needed.
func (p *FreePool) SetFree(machine, slot int, category string) {
	p.enter()
	defer p.leave()
	if category == AnyCategory {
		panic("sched: AnyCategory is not a real category")
	}
	idx := slotIndex(machine, slot)
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
	*cur = slotState{free: true, category: category, freeGen: p.freeSeq}
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

// SetBusy marks a slot occupied.
func (p *FreePool) SetBusy(machine, slot int) {
	p.enter()
	defer p.leave()
	p.setBusy(slotIndex(machine, slot))
}

func (p *FreePool) setBusy(idx int) {
	if st := p.at(idx); st.free {
		p.counts[st.category]--
		p.free--
		*st = slotState{}
	}
}

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

// Category returns the current category of a free slot (ok=false if the
// slot is not free).
func (p *FreePool) Category(machine, slot int) (string, bool) {
	idx := slotIndex(machine, slot)
	if idx >= p.untouched && idx < p.idle {
		return EmptyCategory, true // as booted; a read does not write it out
	}
	if idx >= len(p.state) || !p.state[idx].free {
		return "", false
	}
	return p.state[idx].category, true
}

// OldestFree returns the free slot that has been free the longest — the
// slot Pop(AnyCategory) is contractually bound to take next. It is a pure
// read (O(slots)) used by the invariant auditor to validate FIFO fairness.
func (p *FreePool) OldestFree() (machine, slot int, ok bool) {
	p.enter()
	defer p.leave()
	best := int64(0)
	for idx, st := range p.state {
		if st.free && (!ok || st.freeGen < best) {
			best = st.freeGen
			machine, slot = slotOf(idx)
			ok = true
		}
	}
	// A booted-idle slot outranks everything freed after boot.
	if p.untouched < p.idle && (!ok || best > int64(p.idle)) {
		machine, slot = slotOf(p.untouched)
		ok = true
	}
	return machine, slot, ok
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
