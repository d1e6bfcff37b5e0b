package sched

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFreePoolRefreeDoesNotJumpFIFOQueue is the regression test for the
// global-heap staleness bug: a slot that is freed, recategorized, made busy
// and freed again used to retain an older global entry with a smaller
// freed-order stamp, so it popped before slots that had been free longer —
// breaking the documented FIFO-over-VMs spreading.
func TestFreePoolRefreeDoesNotJumpFIFOQueue(t *testing.T) {
	p := NewFreePool()
	p.SetFree(0, 0, EmptyCategory) // freed first
	p.SetFree(0, 0, "x")           // recategorized (keeps its FIFO position)
	markBusy(p, 0, 0)
	p.SetFree(1, 0, EmptyCategory) // now the longest-free slot
	p.SetFree(0, 0, EmptyCategory) // refreed: must queue behind (1,0)

	m, s, err := p.Pop(AnyCategory)
	if err != nil || m != 1 || s != 0 {
		t.Fatalf("Pop(Any) = %d,%d,%v; want 1,0 (the longest-free slot)", m, s, err)
	}
	m, s, err = p.Pop(AnyCategory)
	if err != nil || m != 0 || s != 0 {
		t.Fatalf("Pop(Any) = %d,%d,%v; want 0,0 (the refreed slot)", m, s, err)
	}
}

// TestFreePoolRecategorizeKeepsFIFOPosition: changing a free slot's
// neighbour category must not move it in the FIFO-over-VMs queue.
func TestFreePoolRecategorizeKeepsFIFOPosition(t *testing.T) {
	p := NewFreePool()
	p.SetFree(0, 0, EmptyCategory) // freed first
	p.SetFree(1, 0, EmptyCategory) // freed second
	p.SetFree(0, 0, "io")          // recategorized, still the oldest
	m, s, err := p.Pop(AnyCategory)
	if err != nil || m != 0 || s != 0 {
		t.Fatalf("Pop(Any) = %d,%d,%v; want 0,0 (recategorization kept it oldest)", m, s, err)
	}
}

// TestFreePoolHeapsStayBounded drives many free/recategorize/busy cycles
// (the access pattern of a long DropRecords run that schedules by category
// and rarely takes the longest-free VM) and requires the list and the
// heaps to hold exactly the free VMs throughout, however often a VM is
// recategorized or made busy. The cycles go through the inventory writers
// so that Check holds after each one.
func TestFreePoolHeapsStayBounded(t *testing.T) {
	const machines, cycles = 4, 50000
	p := NewIdleFreePool(machines)
	for m := 0; m < machines; m++ {
		p.Occupy(m, 0, "y")
		p.Occupy(m, 1, "y")
	}
	for i := 0; i < cycles; i++ {
		m, s := i%machines, (i/machines)%2
		p.Vacate(m, s)        // free under "y"
		p.Vacate(m, 1-s)      // recategorized under EmptyCategory
		p.Occupy(m, 1-s, "x") // and under "x"
		if i%1000 == 999 {
			listed, heaped := indexLens(p)
			if err := p.Check(); err != nil || listed != p.FreeSlots() || heaped != p.FreeSlots() {
				t.Fatalf("cycle %d: Check %v; the list holds %d VMs and the heaps %d for %d free",
					i, err, listed, heaped, p.FreeSlots())
			}
		}
		p.Occupy(m, s, "y") // busy
	}
}

// indexLens returns the length of the freed-order list and the summed
// length of the category heaps.
func indexLens(p *FreePool) (listed, heaped int) {
	for idx := p.head; idx >= 0; idx = p.state[idx].next {
		listed++
	}
	for _, h := range p.heaps {
		heaped += len(*h)
	}
	return listed, heaped
}

// markBusy takes a VM out of the free index directly, as the raw-index
// tests below need (the program reaches it only through Pop, Occupy and
// SetInService).
func markBusy(p *FreePool, machine, slot int) {
	p.enter()
	defer p.leave()
	p.setBusy(slotIndex(machine, slot))
}

// category returns a VM's free category as Pop resolves it (ok=false if
// the VM is not free).
func category(p *FreePool, machine, slot int) (string, bool) {
	st := p.peek(slotIndex(machine, slot))
	return st.category, st.free
}

// refPool is the naive reference implementation of the FreePool contract:
// a flat map of slot states with linear scans. Pop(AnyCategory) takes the
// slot freed the longest ago (FIFO over VMs, index tie-break); category
// pops take the lowest-indexed matching slot.
type refPool struct {
	free  map[[2]int]refSlot
	clock int64
}

type refSlot struct {
	category string
	freedAt  int64
}

func newRefPool() *refPool { return &refPool{free: map[[2]int]refSlot{}} }

func (r *refPool) SetFree(m, s int, category string) {
	key := [2]int{m, s}
	if st, ok := r.free[key]; ok {
		st.category = category
		r.free[key] = st
		return
	}
	r.clock++
	r.free[key] = refSlot{category: category, freedAt: r.clock}
}

func (r *refPool) SetBusy(m, s int) { delete(r.free, [2]int{m, s}) }

func (r *refPool) Counts() Counts {
	out := Counts{}
	for _, st := range r.free {
		out[st.category]++
	}
	return out
}

func (r *refPool) Pop(category string) (int, int, error) {
	bestKey := [2]int{-1, -1}
	found := false
	var bestFreed int64
	for key, st := range r.free {
		if category == AnyCategory {
			if !found || st.freedAt < bestFreed ||
				(st.freedAt == bestFreed && (key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]))) {
				bestKey, bestFreed, found = key, st.freedAt, true
			}
			continue
		}
		if st.category != category {
			continue
		}
		if !found || key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]) {
			bestKey, found = key, true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("ref: no free VM")
	}
	delete(r.free, bestKey)
	return bestKey[0], bestKey[1], nil
}

// sameFreedOrder requires the pool to hold exactly the reference's free
// slots, and in the reference's freed order: sorted by the pool's FreeGen
// stamps, they are the reference's sorted by freedAt.
func sameFreedOrder(p *FreePool, r *refPool, machines int) error {
	type vm struct {
		key [2]int
		gen int64
	}
	var got, want []vm
	for m := 0; m < machines; m++ {
		for s := 0; s < SlotsPerMachine; s++ {
			key := [2]int{m, s}
			if gen, ok := p.FreeGen(m, s); ok {
				got = append(got, vm{key, gen})
			}
			if st, ok := r.free[key]; ok {
				want = append(want, vm{key, st.freedAt})
			}
		}
	}
	for _, l := range [][]vm{got, want} {
		sort.Slice(l, func(i, j int) bool { return l[i].gen < l[j].gen })
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d free slots, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].key != want[i].key {
			return fmt.Errorf("freed order %v, reference %v", got, want)
		}
	}
	return nil
}

// TestFreePoolMatchesReferenceRandomized drives FreePool and the naive
// reference through identical random SetFree/SetBusy/Pop sequences and
// requires identical observable behaviour at every step. Fast enough for
// the -race short pass.
// countsTotal is Σ Counts(), what FreeSlots' running total must equal.
func countsTotal(p *FreePool) int {
	sum := 0
	for _, n := range p.Counts(nil) {
		sum += n
	}
	return sum
}

func TestFreePoolMatchesReferenceRandomized(t *testing.T) {
	categories := []string{EmptyCategory, "io", "cpu", "mid"}
	for _, seed := range []int64{1, 7, 42, 1337} {
		rng := rand.New(rand.NewSource(seed))
		p := NewFreePool()
		ref := newRefPool()
		var dst Counts
		const machines, slots = 5, 2
		for op := 0; op < 4000; op++ {
			m, s := rng.Intn(machines), rng.Intn(slots)
			switch rng.Intn(4) {
			case 0, 1:
				cat := categories[rng.Intn(len(categories))]
				// SetFree on the real pool is only legal for busy or free
				// slots alike, but SetBusy/SetFree mirror each other.
				p.SetFree(m, s, cat)
				ref.SetFree(m, s, cat)
			case 2:
				markBusy(p, m, s)
				ref.SetBusy(m, s)
			case 3:
				cat := AnyCategory
				if rng.Intn(2) == 0 {
					cat = categories[rng.Intn(len(categories))]
				}
				gm, gs, gerr := p.Pop(cat)
				wm, ws, werr := ref.Pop(cat)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("seed %d op %d Pop(%q): err %v vs reference %v", seed, op, cat, gerr, werr)
				}
				if gerr == nil && (gm != wm || gs != ws) {
					t.Fatalf("seed %d op %d Pop(%q) = %d,%d; reference %d,%d", seed, op, cat, gm, gs, wm, ws)
				}
			}
			// One map reused across every op: Counts must clear what it
			// filled last time.
			dst = p.Counts(dst)
			got, want := dst, ref.Counts()
			for c, n := range want {
				if n == 0 {
					delete(want, c)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d counts %v vs reference %v", seed, op, got, want)
			}
			for c, n := range want {
				if got[c] != n {
					t.Fatalf("seed %d op %d counts %v vs reference %v", seed, op, got, want)
				}
			}
			if p.FreeSlots() != len(ref.free) {
				t.Fatalf("seed %d op %d FreeSlots %d vs reference %d", seed, op, p.FreeSlots(), len(ref.free))
			}
			if n, sum := p.FreeSlots(), countsTotal(p); n != sum {
				t.Fatalf("seed %d op %d FreeSlots %d, Σ Counts %d", seed, op, n, sum)
			}
		}
	}
}

// TestFreePoolCrashRecoverMatchesReference adds the fault-injection
// lifecycle to the randomized reference check: machine crashes (both slots
// forced busy at once, as the engine evacuates a downed machine) and
// recoveries (both slots freed Empty-category). A crash-evicted slot that
// recovers must re-enter the FIFO at a fresh generation — it becomes the
// NEWEST free slot, never inheriting its pre-crash position — which the
// freed-order cross-check after every operation verifies.
func TestFreePoolCrashRecoverMatchesReference(t *testing.T) {
	categories := []string{EmptyCategory, "io", "cpu", "mid"}
	for _, seed := range []int64{3, 11, 99, 4242} {
		rng := rand.New(rand.NewSource(seed))
		p := NewFreePool()
		ref := newRefPool()
		const machines, slots = 5, 2
		for op := 0; op < 4000; op++ {
			m, s := rng.Intn(machines), rng.Intn(slots)
			switch rng.Intn(6) {
			case 0, 1:
				cat := categories[rng.Intn(len(categories))]
				p.SetFree(m, s, cat)
				ref.SetFree(m, s, cat)
			case 2:
				markBusy(p, m, s)
				ref.SetBusy(m, s)
			case 3:
				cat := AnyCategory
				if rng.Intn(2) == 0 {
					cat = categories[rng.Intn(len(categories))]
				}
				gm, gs, gerr := p.Pop(cat)
				wm, ws, werr := ref.Pop(cat)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("seed %d op %d Pop(%q): err %v vs reference %v", seed, op, cat, gerr, werr)
				}
				if gerr == nil && (gm != wm || gs != ws) {
					t.Fatalf("seed %d op %d Pop(%q) = %d,%d; reference %d,%d", seed, op, cat, gm, gs, wm, ws)
				}
			case 4:
				// Crash: the engine force-busies every slot of the machine
				// (SetBusy is a no-op on slots already handed out).
				for cs := 0; cs < slots; cs++ {
					markBusy(p, m, cs)
					ref.SetBusy(m, cs)
				}
			case 5:
				// Recovery: both slots return empty-category, stamped as the
				// newest entries in freed order.
				for cs := 0; cs < slots; cs++ {
					p.SetFree(m, cs, EmptyCategory)
					ref.SetFree(m, cs, EmptyCategory)
				}
			}
			if err := sameFreedOrder(p, ref, machines); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if p.FreeSlots() != len(ref.free) {
				t.Fatalf("seed %d op %d FreeSlots %d vs reference %d", seed, op, p.FreeSlots(), len(ref.free))
			}
			if n, sum := p.FreeSlots(), countsTotal(p); n != sum {
				t.Fatalf("seed %d op %d FreeSlots %d, Σ Counts %d", seed, op, n, sum)
			}
		}
	}
}

// TestIdleFreePoolEqualsIncrementalBuild holds NewIdleFreePool to its
// contract: the same observable state, and the same pops in the same
// order, as an empty pool given SetInService per machine in index order, under
// identical random traffic (which starts while most of the idle pool is
// still unmaterialized, and reaches two machines past the booted ones).
func TestIdleFreePoolEqualsIncrementalBuild(t *testing.T) {
	categories := []string{AnyCategory, EmptyCategory, "io", "cpu"}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		machines := 1 + rng.Intn(40)
		bulk, step := NewIdleFreePool(machines), NewFreePool()
		for m := 0; m < machines; m++ {
			step.SetInService(m, true)
		}
		same := func(at string) {
			t.Helper()
			if b, s := bulk.FreeSlots(), step.FreeSlots(); b != s {
				t.Fatalf("seed %d %s: %d free slots vs incremental %d", seed, at, b, s)
			}
			if b, sum := bulk.FreeSlots(), countsTotal(bulk); b != sum {
				t.Fatalf("seed %d %s: %d free slots, Σ Counts %d", seed, at, b, sum)
			}
			if b, s := fmt.Sprint(bulk.Counts(nil)), fmt.Sprint(step.Counts(nil)); b != s {
				t.Fatalf("seed %d %s: counts %s vs incremental %s", seed, at, b, s)
			}
			if b, s := bulk.InServiceMachines(), step.InServiceMachines(); b != s {
				t.Fatalf("seed %d %s: %d machines in service vs incremental %d", seed, at, b, s)
			}
			for m := 0; m < machines+2; m++ {
				for s := 0; s < SlotsPerMachine; s++ {
					bg, bok := bulk.FreeGen(m, s)
					sg, sok := step.FreeGen(m, s)
					if bg != sg || bok != sok {
						t.Fatalf("seed %d %s: VM %d/%d stamp %d,%v vs incremental %d,%v", seed, at, m, s, bg, bok, sg, sok)
					}
				}
			}
		}
		same("boot")
		for op := 0; op < 600; op++ {
			m, s := rng.Intn(machines+2), rng.Intn(2)
			cat := categories[rng.Intn(len(categories))]
			switch r := rng.Intn(10); {
			case r < 3 && cat != AnyCategory:
				bulk.SetFree(m, s, cat)
				step.SetFree(m, s, cat)
			case r < 5:
				markBusy(bulk, m, s)
				markBusy(step, m, s)
			case r < 6:
				bc, bok := category(bulk, m, s)
				sc, sok := category(step, m, s)
				if bc != sc || bok != sok {
					t.Fatalf("seed %d op %d Category(%d,%d) = %q,%v vs incremental %q,%v", seed, op, m, s, bc, bok, sc, sok)
				}
			default:
				bm, bs, bg, berr := bulk.PopTraced(cat)
				sm, ss, sg, serr := step.PopTraced(cat)
				if bm != sm || bs != ss || bg != sg || (berr == nil) != (serr == nil) {
					t.Fatalf("seed %d op %d Pop(%q) = %d/%d gen %d (%v) vs incremental %d/%d gen %d (%v)",
						seed, op, cat, bm, bs, bg, berr, sm, ss, sg, serr)
				}
			}
			same(fmt.Sprintf("op %d", op))
		}
	}
}

// TestIdleFreePoolOrdersBootedSlots pins the two orders the unmaterialized
// part of an idle pool must respect: for AnyCategory a slot free since boot
// outranks one freed since, however late it enters the heap; for
// EmptyCategory the lowest index wins, booted or re-freed.
func TestIdleFreePoolOrdersBootedSlots(t *testing.T) {
	pops := func(p *FreePool, category string, want ...[2]int) {
		t.Helper()
		for _, w := range want {
			if m, s, err := p.Pop(category); err != nil || m != w[0] || s != w[1] {
				t.Fatalf("Pop(%q) = %d/%d (%v), want %d/%d", category, m, s, err, w[0], w[1])
			}
		}
	}
	p := NewIdleFreePool(3)
	pops(p, AnyCategory, [2]int{0, 0})
	p.SetFree(0, 0, EmptyCategory) // freed after boot: behind all five booted slots
	pops(p, AnyCategory, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 1}, [2]int{2, 0}, [2]int{2, 1}, [2]int{0, 0})
	if _, _, err := p.Pop(AnyCategory); err == nil {
		t.Fatal("Pop on an exhausted pool succeeded")
	}

	p = NewIdleFreePool(2)
	pops(p, EmptyCategory, [2]int{0, 0}, [2]int{0, 1})
	p.SetFree(0, 1, EmptyCategory)
	pops(p, EmptyCategory, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 1})
}

// refInventory is the naive reference for the inventory rule: each VM's
// occupant, each machine's service, and a freed-order stamp per free VM
// (0 when not free). Whether a VM is free, and under which category, is
// derived by the rule itself; every query is a slice scan.
type refInventory struct {
	app   [][SlotsPerMachine]string
	in    []bool
	stamp [][SlotsPerMachine]int64
	clock int64
}

// newRefInventory returns machines idle and in service (as
// NewIdleFreePool), or all out of service (as NewFreePool).
func newRefInventory(machines int, idle bool) *refInventory {
	r := &refInventory{
		app:   make([][SlotsPerMachine]string, machines),
		in:    make([]bool, machines),
		stamp: make([][SlotsPerMachine]int64, machines),
	}
	for m := 0; idle && m < machines; m++ {
		r.in[m] = true
	}
	r.restamp()
	return r
}

func (r *refInventory) free(m, s int) bool { return r.in[m] && r.app[m][s] == "" }

// restamp stamps VMs that became free, in index order, and clears the
// stamps of VMs that stopped being free.
func (r *refInventory) restamp() {
	for m := range r.app {
		for s := range r.app[m] {
			switch {
			case !r.free(m, s):
				r.stamp[m][s] = 0
			case r.stamp[m][s] == 0:
				r.clock++
				r.stamp[m][s] = r.clock
			}
		}
	}
}

// pop resolves a category: the oldest stamp for AnyCategory, else the
// lowest-indexed free VM whose sibling runs category.
func (r *refInventory) pop(category string) (mi, si int, ok bool) {
	for m := range r.app {
		for s := range r.app[m] {
			switch {
			case !r.free(m, s):
			case category == AnyCategory:
				if !ok || r.stamp[m][s] < r.stamp[mi][si] {
					mi, si, ok = m, s, true
				}
			case r.app[m][1-s] == category:
				return m, s, true
			}
		}
	}
	return mi, si, ok
}

// TestFreePoolInventoryMatchesReference drives random Occupy, Vacate,
// SetInService and Pop-then-Occupy streams through the pool and the naive
// reference, from both constructors, and requires after every operation
// the same pops, occupants, service, categories, stamps and counts, and a
// clean Check.
func TestFreePoolInventoryMatchesReference(t *testing.T) {
	apps := []string{"io", "cpu", "mid"}
	categories := []string{AnyCategory, EmptyCategory, "io", "cpu", "mid"}
	const machines = 6
	for _, idle := range []bool{true, false} {
		for _, seed := range []int64{1, 7, 42, 1337} {
			rng := rand.New(rand.NewSource(seed))
			p, ref := NewFreePool(), newRefInventory(machines, idle)
			if idle {
				p = NewIdleFreePool(machines)
			}
			for op := 0; op < 3000; op++ {
				m, s, app := rng.Intn(machines), rng.Intn(SlotsPerMachine), apps[rng.Intn(len(apps))]
				what := ""
				switch r := rng.Intn(10); {
				case r < 3:
					cat := categories[rng.Intn(len(categories))]
					what = fmt.Sprintf("Pop(%q)", cat)
					gm, gs, err := p.Pop(cat)
					wm, ws, ok := ref.pop(cat)
					if (err == nil) != ok || ok && (gm != wm || gs != ws) {
						t.Fatalf("idle=%v seed %d op %d %s = %d/%d (%v); reference %d/%d (%v)", idle, seed, op, what, gm, gs, err, wm, ws, ok)
					}
					if ok {
						p.Occupy(gm, gs, app)
						ref.app[gm][gs] = app
					}
				case r < 5:
					if ref.app[m][s] != "" {
						continue
					}
					what = fmt.Sprintf("Occupy(%d, %d, %q)", m, s, app)
					p.Occupy(m, s, app)
					ref.app[m][s] = app
				case r < 8:
					what = fmt.Sprintf("Vacate(%d, %d)", m, s)
					p.Vacate(m, s)
					ref.app[m][s] = ""
				default:
					in := rng.Intn(3) > 0
					what = fmt.Sprintf("SetInService(%d, %v)", m, in)
					p.SetInService(m, in)
					ref.in[m] = in
				}
				ref.restamp()
				if err := p.Check(); err != nil {
					t.Fatalf("idle=%v seed %d op %d %s: %v", idle, seed, op, what, err)
				}
				want, in := Counts{}, 0
				for rm := 0; rm < machines; rm++ {
					if ref.in[rm] {
						in++
					}
					if p.InService(rm) != ref.in[rm] {
						t.Fatalf("idle=%v seed %d op %d %s: machine %d in service %v, reference %v", idle, seed, op, what, rm, p.InService(rm), ref.in[rm])
					}
					for rs := 0; rs < SlotsPerMachine; rs++ {
						gotApp, gotOK := p.Occupant(rm, rs)
						gotCat, gotFree := category(p, rm, rs)
						gotGen, _ := p.FreeGen(rm, rs)
						wantCat := ref.app[rm][1-rs]
						if !ref.free(rm, rs) {
							wantCat = ""
						} else {
							want[wantCat]++
						}
						if gotApp != ref.app[rm][rs] || gotOK != (ref.app[rm][rs] != "") ||
							gotFree != ref.free(rm, rs) || gotCat != wantCat || gotGen != ref.stamp[rm][rs] {
							t.Fatalf("idle=%v seed %d op %d %s: VM %d/%d runs %q (%v), free %v under %q, stamp %d; reference runs %q, free %v under %q, stamp %d",
								idle, seed, op, what, rm, rs, gotApp, gotOK, gotFree, gotCat, gotGen,
								ref.app[rm][rs], ref.free(rm, rs), wantCat, ref.stamp[rm][rs])
						}
					}
				}
				if got := p.Counts(nil); fmt.Sprint(got) != fmt.Sprint(want) || p.FreeSlots() != want.Total() || p.InServiceMachines() != in {
					t.Fatalf("idle=%v seed %d op %d %s: counts %v, %d free, %d in service; reference %v, %d, %d",
						idle, seed, op, what, got, p.FreeSlots(), p.InServiceMachines(), want, want.Total(), in)
				}
			}
		}
	}
}

// TestFreePoolCheckCatchesCorruption corrupts the incremental index one way
// at a time, each kept self-consistent apart from the one fault, and
// requires Check to report every one.
func TestFreePoolCheckCatchesCorruption(t *testing.T) {
	// Check is a pure read: it writes out no booted-idle slot.
	idle := NewIdleFreePool(1000)
	if err := idle.Check(); err != nil || len(idle.state) != 0 {
		t.Fatalf("Check on an idle pool: %v; %d slots written", err, len(idle.state))
	}
	build := func() *FreePool {
		p := NewIdleFreePool(3)
		p.Occupy(0, 0, "io") // VM 0/1 is now free under "io"
		p.SetInService(2, false)
		if err := p.Check(); err != nil {
			t.Fatalf("healthy pool: %v", err)
		}
		return p
	}
	for _, c := range []struct {
		name    string
		corrupt func(p *FreePool)
	}{
		{"wrong-count", func(p *FreePool) { p.free++ }},
		// The raw index write keeps the list, the heaps and the free count
		// consistent but not the inventory rule.
		{"wrong-category", func(p *FreePool) { p.setFree(1, "cpu") }},
		{"occupied-left-free", func(p *FreePool) { p.setFree(0, "io") }},
		{"out-of-service-left-free", func(p *FreePool) { p.setFree(4, EmptyCategory) }},
		// The free VMs 0/1 (under "io"), 1/0 and 1/1 are listed in that
		// order; 1/0 and 1/1 fill the EmptyCategory heap.
		{"free-missing-from-list", func(p *FreePool) { p.unlink(1) }},
		{"list-out-of-freed-order", func(p *FreePool) {
			p.unlink(1)
			p.link(1, 2)
		}},
		{"wrong-heap-position", func(p *FreePool) { p.state[3].pos = 0 }},
		{"in-another-categorys-heap", func(p *FreePool) {
			p.heapRemove("io", 1)
			p.heapPush(EmptyCategory, 1)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := build()
			c.corrupt(p)
			if err := p.Check(); err == nil {
				t.Fatal("Check passed a corrupted index")
			}
		})
	}
}

// TestFreeIndexWritesStayInSched holds the inventory rule and the
// scheduling pass to one implementation each: no non-test Go file of the
// module outside this package may call SetFree, the raw index write, or
// SetBusy, its busy half should it come back — the simulator and the
// daemon keep the rule through Occupy, Vacate and SetInService — nor
// Schedule, Pop or PopTraced, which only Passes.Drain calls. A call
// qualified by an imported package's name (heap.Pop) is not a method call
// and stays allowed. A nested module (bench/) is not scanned.
func TestFreeIndexWritesStayInSched(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			filepath.Dir(path) == filepath.Join(root, "internal", "sched") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imported := map[string]bool{}
		for _, imp := range f.Imports {
			name := filepath.Base(strings.Trim(imp.Path.Value, `"`))
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && imported[x.Name] {
				return true
			}
			switch sel.Sel.Name {
			case "SetFree", "SetBusy":
				t.Errorf("%s: %s writes the free index directly — use FreePool.Occupy, Vacate or SetInService",
					fset.Position(call.Pos()), sel.Sel.Name)
			case "Schedule", "Pop", "PopTraced":
				t.Errorf("%s: %s runs part of a scheduling pass — call sched.Passes.Drain",
					fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
