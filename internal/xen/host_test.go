package xen

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newTestHost(t *testing.T) *Host {
	t.Helper()
	h, err := NewHost(DefaultHost())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func cpuHog(name string, demand float64) AppSpec {
	return AppSpec{Name: name, Endless: true, CPUDemand: demand, ReqSizeKB: 4}
}

func seqReader(name string) AppSpec {
	return AppSpec{Name: name, ReadOps: 100000, ReqSizeKB: 64, Seq: 1.0, MaxIODepth: 4, CPUSeconds: 5}
}

func ioHogBG(name string) AppSpec {
	return AppSpec{Name: name, Endless: true, CPUDemand: 0.05, TargetReadRate: 1e9, ReqSizeKB: 64, Seq: 1.0, MaxIODepth: 4}
}

func TestNewHostRejectsBadConfig(t *testing.T) {
	cfg := DefaultHost()
	cfg.GuestCPUCap = 0
	if _, err := NewHost(cfg); err == nil {
		t.Fatal("zero guest capacity accepted")
	}
	cfg = DefaultHost()
	cfg.Dom0CPUCap = -1
	if _, err := NewHost(cfg); err == nil {
		t.Fatal("negative dom0 capacity accepted")
	}
}

func TestSteadyRejectsInvalidSpecs(t *testing.T) {
	h := newTestHost(t)
	if _, err := h.Steady(nil); err == nil {
		t.Fatal("empty app set accepted")
	}
	if _, err := h.Steady([]AppSpec{{Name: "x", ReqSizeKB: 4}}); err == nil {
		t.Fatal("spec with no work accepted")
	}
	if _, err := h.Steady([]AppSpec{{Name: "x", CPUSeconds: 1, ReqSizeKB: 0}}); err == nil {
		t.Fatal("zero request size accepted")
	}
}

func TestSoloCPUOnlyRuntime(t *testing.T) {
	h := newTestHost(t)
	st, err := h.Steady([]AppSpec{{Name: "calc", CPUSeconds: 600, ReqSizeKB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st[0].Runtime-600) > 1e-6 {
		t.Fatalf("solo CPU-only runtime = %v want 600", st[0].Runtime)
	}
	if st[0].IOPS != 0 || st[0].Dom0CPU != 0 {
		t.Fatalf("CPU-only app should not touch I/O: %+v", st[0])
	}
	if math.Abs(st[0].GuestCPU-1) > 1e-6 {
		t.Fatalf("CPU-only app should saturate its vCPU, got %v", st[0].GuestCPU)
	}
}

func TestSoloSeqReaderRespectsDeviceCeiling(t *testing.T) {
	h := newTestHost(t)
	st, err := h.Steady([]AppSpec{seqReader("sr")})
	if err != nil {
		t.Fatal(err)
	}
	devMax := h.Config().Disk.MaxSeqIOPS(64)
	if st[0].IOPS > devMax+1 {
		t.Fatalf("solo IOPS %v exceeds device max %v", st[0].IOPS, devMax)
	}
	if st[0].IOPS < 0.5*devMax {
		t.Fatalf("sequential reader should get most of the device: %v of %v", st[0].IOPS, devMax)
	}
}

func TestTwoCPUHogsHalve(t *testing.T) {
	h := newTestHost(t)
	st, err := h.Steady([]AppSpec{
		{Name: "calcA", CPUSeconds: 100, ReqSizeKB: 4},
		{Name: "calcB", CPUSeconds: 100, ReqSizeKB: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st {
		if math.Abs(s.Slowdown-2) > 0.05 {
			t.Fatalf("two CPU hogs should each slow ≈2×, got %v", s.Slowdown)
		}
	}
}

func TestIdleNeighbourIsHarmless(t *testing.T) {
	h := newTestHost(t)
	solo, err := h.Steady([]AppSpec{seqReader("sr")})
	if err != nil {
		t.Fatal(err)
	}
	with, err := h.Steady([]AppSpec{seqReader("sr"), Idle()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(with[0].Runtime-solo[0].Runtime)/solo[0].Runtime > 0.01 {
		t.Fatalf("idle neighbour changed runtime: %v vs %v", with[0].Runtime, solo[0].Runtime)
	}
}

func TestSlowdownNeverBelowOne(t *testing.T) {
	h := newTestHost(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := AppSpec{
			Name:       "a",
			CPUSeconds: rng.Float64() * 500,
			ReadOps:    rng.Float64() * 100000,
			WriteOps:   rng.Float64() * 20000,
			ReqSizeKB:  4 + rng.Float64()*124,
			Seq:        rng.Float64(),
			MaxIODepth: 1 + rng.Float64()*7,
		}
		if a.CPUSeconds == 0 && a.TotalOps() == 0 {
			return true
		}
		b := AppSpec{
			Name:            "b",
			Endless:         true,
			CPUDemand:       rng.Float64(),
			TargetReadRate:  rng.Float64() * 1500,
			TargetWriteRate: rng.Float64() * 300,
			ReqSizeKB:       4 + rng.Float64()*124,
			Seq:             rng.Float64(),
			MaxIODepth:      1 + rng.Float64()*7,
		}
		st, err := h.Steady([]AppSpec{a, b})
		if err != nil {
			return false
		}
		return st[0].Slowdown >= 1 && !math.IsNaN(st[0].Slowdown) && !math.IsInf(st[0].Slowdown, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInterferenceMonotoneInBackgroundIORate(t *testing.T) {
	h := newTestHost(t)
	prev := 0.0
	for _, rate := range []float64{0, 50, 200, 800, 1e9} {
		bg := AppSpec{Name: "bg", Endless: true, TargetReadRate: rate, ReqSizeKB: 64, Seq: 1, MaxIODepth: 4}
		st, err := h.Steady([]AppSpec{seqReader("sr"), bg})
		if err != nil {
			t.Fatal(err)
		}
		if st[0].Slowdown < prev-0.05 {
			t.Fatalf("slowdown decreased when background I/O rate rose to %v: %v < %v", rate, st[0].Slowdown, prev)
		}
		prev = st[0].Slowdown
	}
	if prev < 5 {
		t.Fatalf("full-rate background should slow a sequential reader heavily, got %v", prev)
	}
}

func TestDom0FeatureReflectsRequestSize(t *testing.T) {
	// Two apps with identical request rates but different request sizes must
	// differ in Dom0 CPU — this is what makes the fourth model feature
	// informative (Sec. 3.1 / Fig 3 ablation).
	h := newTestHost(t)
	small := AppSpec{Name: "s", ReadOps: 10000, ReqSizeKB: 4, Seq: 1, CPUSeconds: 1, ThinkSeconds: 80}
	big := small
	big.Name = "b"
	big.ReqSizeKB = 256
	stS, err := h.Steady([]AppSpec{small})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := h.Steady([]AppSpec{big})
	if err != nil {
		t.Fatal(err)
	}
	perOpS := stS[0].Dom0CPU / stS[0].IOPS
	perOpB := stB[0].Dom0CPU / stB[0].IOPS
	if perOpB <= perOpS*2 {
		t.Fatalf("dom0 cost per op should grow strongly with request size: %v vs %v", perOpB, perOpS)
	}
}

func TestCrossDelayNeedsBothCPUAndIO(t *testing.T) {
	// The Table 1 story: a CPU-only neighbour barely hurts a sequential
	// reader, an IO-only neighbour hurts it a lot, and a CPU+IO neighbour
	// hurts it the most.
	h := newTestHost(t)
	sr := seqReader("sr")
	slow := func(bg AppSpec) float64 {
		st, err := h.Steady([]AppSpec{sr, bg})
		if err != nil {
			t.Fatal(err)
		}
		return st[0].Slowdown
	}
	cpuOnly := slow(cpuHog("cpu", 1.0))
	ioOnly := slow(ioHogBG("io"))
	both := slow(AppSpec{Name: "both", Endless: true, CPUDemand: 1.0, TargetReadRate: 1e9, ReqSizeKB: 64, Seq: 1, MaxIODepth: 4})
	if cpuOnly > 1.2 {
		t.Fatalf("CPU-only neighbour should barely affect a reader: %v", cpuOnly)
	}
	if ioOnly < 5 {
		t.Fatalf("IO-only neighbour should hurt a reader badly: %v", ioOnly)
	}
	if both < ioOnly*1.2 {
		t.Fatalf("CPU+IO neighbour (%v) should exceed IO-only (%v)", both, ioOnly)
	}
}

func TestWaterfill(t *testing.T) {
	cases := []struct {
		demands []float64
		cap     float64
		want    []float64
	}{
		{[]float64{0.2, 0.3}, 1.0, []float64{0.2, 0.3}},                       // under capacity
		{[]float64{1.0, 1.0}, 1.0, []float64{0.5, 0.5}},                       // equal split
		{[]float64{0.1, 1.0}, 1.0, []float64{0.1, 0.9}},                       // leftover flows
		{[]float64{0.6, 0.6, 0.6}, 1.0, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}}, // three-way
		{[]float64{0.05, 0.5, 2.0}, 1.0, []float64{0.05, 0.475, 0.475}},
	}
	for _, c := range cases {
		got := waterfill(c.demands, c.cap)
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("waterfill(%v, %v) = %v want %v", c.demands, c.cap, got, c.want)
			}
		}
	}
}

func TestWaterfillProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		demands := make([]float64, n)
		for i := range demands {
			demands[i] = rng.Float64() * 2
		}
		capacity := rng.Float64() * 3
		alloc := waterfill(demands, capacity)
		total := 0.0
		for i, a := range alloc {
			if a < -1e-12 || a > demands[i]+1e-12 {
				return false // never exceed demand, never negative
			}
			total += a
		}
		return total <= capacity+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// waterfill is waterfillInto on fresh buffers.
func waterfill(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	waterfillInto(alloc, make([]int, len(demands)), demands, capacity)
	return alloc
}

// waterfillSortSlice is the water-fill as it was written before the solve
// stopped allocating: fresh buffers and sort.Slice. It is the reference
// waterfillInto must reproduce bit for bit.
func waterfillSortSlice(demands []float64, capacity float64) []float64 {
	n := len(demands)
	alloc := make([]float64, n)
	if n == 0 || capacity <= 0 {
		return alloc
	}
	type entry struct {
		d float64
		i int
	}
	order := make([]entry, n)
	for i, d := range demands {
		order[i] = entry{d: d, i: i}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].d < order[b].d })
	remaining := capacity
	left := n
	for _, e := range order {
		share := remaining / float64(left)
		give := e.d
		if give > share {
			give = share
		}
		alloc[e.i] = give
		remaining -= give
		left--
	}
	return alloc
}

// TestWaterfillIntoMatchesReference: on random inputs of 1–16 entries,
// with ties, zeros, non-positive capacity and capacity above the total
// demand, waterfillInto gives the reference's shares bit for bit, on
// buffers left dirty by the previous input.
func TestWaterfillIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alloc := make([]float64, 16)
	order := make([]int, 16)
	for c := 0; c < 10000; c++ {
		n := 1 + rng.Intn(16)
		levels := 1 + rng.Intn(n) // few levels force ties
		demands := make([]float64, n)
		total := 0.0
		for i := range demands {
			switch rng.Intn(4) {
			case 0:
				demands[i] = 0
			case 1:
				demands[i] = float64(rng.Intn(levels)) / float64(levels)
			default:
				demands[i] = rng.Float64() * 2
			}
			total += demands[i]
		}
		var capacity float64
		switch rng.Intn(4) {
		case 0:
			capacity = -rng.Float64() * float64(rng.Intn(2))
		case 1:
			capacity = total + rng.Float64()
		default:
			capacity = rng.Float64() * total
		}
		want := waterfillSortSlice(demands, capacity)
		for i := range alloc {
			alloc[i] = math.NaN()
		}
		waterfillInto(alloc[:n], order[:n], demands, capacity)
		for i := range want {
			if math.Float64bits(alloc[i]) != math.Float64bits(want[i]) {
				t.Fatalf("case %d: waterfillInto(%v, %v) = %v, reference %v", c, demands, capacity, alloc[:n], want)
			}
		}
	}
}

// TestSteadyAllocs: one 2-app solve allocates its working vectors, its
// sort scratch and its result, and nothing per iteration, so the count
// does not move with MaxIters.
func TestSteadyAllocs(t *testing.T) {
	apps := []AppSpec{seqReader("a"), ioHogBG("b")}
	var counts []float64
	for _, iters := range []int{10, 3000} {
		cfg := DefaultHost()
		cfg.MaxIters = iters
		h, err := NewHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := h.Steady(apps); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("MaxIters %d: %.0f allocs per Steady", iters, got)
		if got > 3 {
			t.Errorf("MaxIters %d: %.0f allocs per Steady, ceiling 3", iters, got)
		}
		counts = append(counts, got)
	}
	if counts[0] != counts[1] {
		t.Errorf("allocs per Steady moved with MaxIters: %v", counts)
	}
}

// TestSteadyNoStaleState: a solve returns the same bits whatever was
// solved before it, including a finite app with no I/O, whose desired
// request rate must not carry over.
func TestSteadyNoStaleState(t *testing.T) {
	h := newTestHost(t)
	cpuOnly := AppSpec{Name: "cpu", CPUSeconds: 10, ReqSizeKB: 4}
	for _, apps := range [][]AppSpec{
		{seqReader("a"), ioHogBG("b")},
		{cpuOnly, seqReader("a")},
		{seqReader("a"), cpuOnly},
		{cpuOnly},
	} {
		first, err := h.Steady(apps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Steady([]AppSpec{ioHogBG("x"), seqReader("y"), cpuHog("z", 0.7)}); err != nil {
			t.Fatal(err)
		}
		again, err := h.Steady(apps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("%s: %+v after another solve, %+v before", apps[i].Name, again[i], first[i])
			}
		}
	}
}

func TestSteadyDeterministic(t *testing.T) {
	h := newTestHost(t)
	apps := []AppSpec{seqReader("a"), ioHogBG("b")}
	s1, err := h.Steady(apps)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := h.Steady(apps)
	if err != nil {
		t.Fatal(err)
	}
	if s1[0] != s2[0] || s1[1] != s2[1] {
		t.Fatal("Steady is not deterministic")
	}
}

func TestThreeWayContentionWorseThanTwoWay(t *testing.T) {
	cfg := DefaultHost()
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	two, err := h.Steady([]AppSpec{seqReader("sr"), ioHogBG("b1")})
	if err != nil {
		t.Fatal(err)
	}
	three, err := h.Steady([]AppSpec{seqReader("sr"), ioHogBG("b1"), ioHogBG("b2")})
	if err != nil {
		t.Fatal(err)
	}
	if three[0].Slowdown <= two[0].Slowdown {
		t.Fatalf("three-way contention (%v) should exceed two-way (%v)", three[0].Slowdown, two[0].Slowdown)
	}
}

func TestSSDInterferenceMuchLowerThanHDD(t *testing.T) {
	cfg := DefaultHost()
	cfg.Disk = SSD()
	hs, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hd := newTestHost(t)
	sr, bg := seqReader("sr"), ioHogBG("bg")
	stS, err := hs.Steady([]AppSpec{sr, bg})
	if err != nil {
		t.Fatal(err)
	}
	stH, err := hd.Steady([]AppSpec{sr, bg})
	if err != nil {
		t.Fatal(err)
	}
	if stS[0].Slowdown > stH[0].Slowdown/2 {
		t.Fatalf("SSD slowdown %v should be far below HDD %v", stS[0].Slowdown, stH[0].Slowdown)
	}
}

func TestDiskCostModel(t *testing.T) {
	d := HDD()
	seq := d.CostMs(1, 64, false)
	rnd := d.CostMs(0, 64, false)
	if rnd < seq*5 {
		t.Fatalf("random cost %v should dwarf sequential %v on an HDD", rnd, seq)
	}
	if w := d.CostMs(1, 64, true); w <= seq {
		t.Fatalf("write cost %v should exceed read %v", w, seq)
	}
	// Clamping.
	if d.CostMs(-1, 64, false) != rnd {
		t.Fatal("seq < 0 should clamp to 0")
	}
	if d.CostMs(2, 64, false) != seq {
		t.Fatal("seq > 1 should clamp to 1")
	}
}

func TestValidate(t *testing.T) {
	good := seqReader("ok")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Seq = 1.5
	if bad.Validate() == nil {
		t.Fatal("seq > 1 accepted")
	}
	bad = good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Fatal("empty name accepted")
	}
	bg := cpuHog("bg", 0.5)
	if err := bg.Validate(); err != nil {
		t.Fatal(err)
	}
	bg.CPUDemand = 2
	if bg.Validate() == nil {
		t.Fatal("cpu demand > 1 accepted")
	}
}

func TestReadFraction(t *testing.T) {
	a := AppSpec{ReadOps: 30, WriteOps: 10}
	if got := a.ReadFraction(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ReadFraction = %v", got)
	}
	if got := (&AppSpec{}).ReadFraction(); got != 0.5 {
		t.Fatalf("no-IO ReadFraction = %v want 0.5", got)
	}
	e := AppSpec{Endless: true, TargetReadRate: 10, TargetWriteRate: 30}
	if got := e.ReadFraction(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("endless ReadFraction = %v", got)
	}
}

func TestRAIDDevices(t *testing.T) {
	hdd, r4 := HDD(), RAID0(4)
	// Striping multiplies sequential throughput.
	if r4.MaxSeqIOPS(64) < 2*hdd.MaxSeqIOPS(64) {
		t.Fatalf("RAID0x4 seq IOPS %v should far exceed single HDD %v",
			r4.MaxSeqIOPS(64), hdd.MaxSeqIOPS(64))
	}
	// But random requests still pay mechanical positioning.
	if r4.CostMs(0, 4, false) < hdd.CostMs(0, 4, false) {
		t.Fatal("RAID0 random cost should not beat a single HDD")
	}
	// Degenerate member counts clamp.
	if RAID0(0).Name != "raid0x1" {
		t.Fatalf("RAID0(0) = %s", RAID0(0).Name)
	}
	r10 := RAID10(4)
	if r10.WritePenaltyFactor <= r4.WritePenaltyFactor {
		t.Fatal("mirroring must make writes relatively more expensive")
	}
	if RAID10(1).Name != "raid10x2" {
		t.Fatalf("RAID10(1) = %s", RAID10(1).Name)
	}
}

func TestRAIDDeliversMoreAbsoluteThroughputUnderContention(t *testing.T) {
	// Relative slowdowns can be *worse* on a faster device (the solo
	// baseline rises faster than the contended floor); what the array must
	// guarantee is higher absolute throughput in both states.
	cfg := DefaultHost()
	cfg.Disk = RAID0(4)
	hr, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hd := newTestHost(t)
	bg := AppSpec{Name: "bg", Endless: true, TargetReadRate: 1e9, ReqSizeKB: 64, Seq: 1, MaxIODepth: 4}
	soloR, err := hr.Steady([]AppSpec{seqReader("sr")})
	if err != nil {
		t.Fatal(err)
	}
	soloH, err := hd.Steady([]AppSpec{seqReader("sr")})
	if err != nil {
		t.Fatal(err)
	}
	stR, err := hr.Steady([]AppSpec{seqReader("sr"), bg})
	if err != nil {
		t.Fatal(err)
	}
	stH, err := hd.Steady([]AppSpec{seqReader("sr"), bg})
	if err != nil {
		t.Fatal(err)
	}
	if soloR[0].IOPS <= soloH[0].IOPS {
		t.Fatalf("RAID solo IOPS %v should exceed HDD %v", soloR[0].IOPS, soloH[0].IOPS)
	}
	if stR[0].IOPS <= stH[0].IOPS {
		t.Fatalf("RAID contended IOPS %v should exceed HDD %v", stR[0].IOPS, stH[0].IOPS)
	}
}

func TestThinkTimeExtendsRuntimeWithoutIO(t *testing.T) {
	h := newTestHost(t)
	st, err := h.Steady([]AppSpec{{Name: "idleish", CPUSeconds: 10, ThinkSeconds: 100, ReqSizeKB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st[0].Runtime-110) > 1e-6 {
		t.Fatalf("runtime %v want 110", st[0].Runtime)
	}
	if st[0].GuestCPU > 0.2 {
		t.Fatalf("thinky app shows CPU %v", st[0].GuestCPU)
	}
}

func TestEndlessGeneratorHonoursTargets(t *testing.T) {
	h := newTestHost(t)
	bg := AppSpec{Name: "gen", Endless: true, TargetReadRate: 100, TargetWriteRate: 50, ReqSizeKB: 16, Seq: 1, MaxIODepth: 4}
	st, err := h.Steady([]AppSpec{bg})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st[0].IOPS-150) > 1 {
		t.Fatalf("generator achieved %v want 150", st[0].IOPS)
	}
	if math.Abs(st[0].ReadPerSec-100) > 1 || math.Abs(st[0].WritePerSec-50) > 1 {
		t.Fatalf("split %v/%v want 100/50", st[0].ReadPerSec, st[0].WritePerSec)
	}
}
