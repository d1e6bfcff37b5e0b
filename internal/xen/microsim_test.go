package xen

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
)

// microSliceMs is the per-stream disk slice of the micro-simulator: a
// CFQ-style stream slice.
const microSliceMs = 3.0

// MicroSim is a discrete per-request simulation of one physical machine:
// every I/O request is individually queued at the device (FCFS, with the
// mechanical penalty charged when the head leaves a stream's locality),
// guest CPU is processor-shared among runnable vCPUs, and Dom0 handling is
// charged per request. It exists to cross-validate the fluid fixed-point
// model in host.go — the substitution this repository makes for the
// paper's real hardware — at request granularity. The tests below hold
// the two to agreement bands.
//
// Only finite applications are supported; each is executed as its natural
// loop: compute a CPU slice, issue one I/O request, repeat (think time is
// spread uniformly across iterations).
type MicroSim struct {
	cfg HostConfig
}

// NewMicroSim builds a per-request simulator for the host configuration.
func NewMicroSim(cfg HostConfig) *MicroSim {
	return &MicroSim{cfg: cfg}
}

// MicroResult is one application's outcome.
type MicroResult struct {
	Runtime float64
	IOPS    float64
}

// microApp is the per-app execution state.
type microApp struct {
	spec      AppSpec
	opsLeft   int
	cpuPerOp  float64 // seconds of CPU before each request
	thinkPer  float64 // seconds of idle before each request
	cpuLeft   float64 // remaining CPU in the current slice
	thinkLeft float64
	state     microState
	done      bool
	finish    float64
	totalOps  int
}

type microState int

const (
	msCompute microState = iota
	msThink
	msQueued  // request waiting at the device
	msService // request being served
	msDone
)

type microEvent struct {
	time float64
	seq  int64
	kind int // 0: recompute checkpoint, 1: disk service complete, 2: think done
	app  int
}

type microHeap []microEvent

func (h microHeap) Len() int { return len(h) }
func (h microHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h microHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *microHeap) Push(x interface{}) { *h = append(*h, x.(microEvent)) }
func (h *microHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// Run executes the applications to completion and returns per-app results.
// The simulation is deterministic.
func (m *MicroSim) Run(specs []AppSpec) ([]MicroResult, error) {
	n := len(specs)
	if n == 0 {
		return nil, fmt.Errorf("xen: microsim needs at least one app")
	}
	apps := make([]*microApp, n)
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.Endless {
			return nil, fmt.Errorf("xen: microsim supports finite apps only (%s)", s.Name)
		}
		ops := int(s.TotalOps())
		a := &microApp{spec: s, opsLeft: ops, totalOps: ops}
		if ops > 0 {
			a.cpuPerOp = s.CPUSeconds / float64(ops)
			a.thinkPer = s.ThinkSeconds / float64(ops)
		} else {
			a.cpuPerOp = s.CPUSeconds
			a.thinkLeft = s.ThinkSeconds
		}
		a.cpuLeft = a.cpuPerOp
		a.state = msCompute
		apps[i] = a
	}

	var (
		now         float64
		seq         int64
		events      microHeap
		diskQueue   []int // app indices, FCFS arrival order
		diskBusy    = -1  // app currently in service
		lastServed  = -1  // stream owning the disk's locality
		sliceUsedMs float64
		lastCPUAt   float64
	)
	push := func(t float64, kind, app int) {
		seq++
		heap.Push(&events, microEvent{time: t, seq: seq, kind: kind, app: app})
	}

	computing := func() []int {
		var out []int
		for i, a := range apps {
			if !a.done && a.state == msCompute {
				out = append(out, i)
			}
		}
		return out
	}

	// settleCPU advances every computing app by the processor-shared
	// amount since the last checkpoint.
	settleCPU := func() {
		comp := computing()
		if len(comp) > 0 {
			share := m.cfg.GuestCPUCap / float64(len(comp))
			if share > 1 {
				share = 1 // one vCPU cannot use more than one core
			}
			dt := now - lastCPUAt
			for _, i := range comp {
				apps[i].cpuLeft -= dt * share
			}
		}
		lastCPUAt = now
	}

	serviceMs := func(i int, switched bool) float64 {
		a := apps[i]
		seqEff := a.spec.Seq
		if switched {
			seqEff = 0 // the head moved: full positioning cost
		}
		return m.cfg.Disk.CostMs(seqEff, a.spec.ReqSizeKB, a.spec.WriteOps > a.spec.ReadOps) +
			m.cfg.Dom0PerOpMs + m.cfg.Dom0PerKBMs*a.spec.ReqSizeKB
	}

	serveIdx := func(qi int, switched bool) {
		i := diskQueue[qi]
		diskQueue = append(diskQueue[:qi], diskQueue[qi+1:]...)
		cost := serviceMs(i, switched)
		if switched {
			// The positioning cost of moving the head does not consume the
			// new owner's slice — the slice meters sequential service time.
			lastServed = i
			sliceUsedMs = 0
		} else {
			sliceUsedMs += cost
		}
		diskBusy = i
		apps[i].state = msService
		push(now+cost/1000, 1, i)
	}

	// startService implements a CFQ-style disk scheduler: the stream that
	// owns the head keeps it for up to microSliceMs of service (with
	// anticipatory idling while its next synchronous request is en route);
	// then the head moves to the longest-waiting other stream and pays the
	// positioning cost. Without slices, two synchronous streams would
	// alternate every request and the simulation would overstate seek
	// thrash relative to any real disk scheduler.
	startService := func() {
		if diskBusy >= 0 {
			return
		}
		if lastServed >= 0 && sliceUsedMs < microSliceMs {
			// The slice owner goes first if queued.
			for qi, i := range diskQueue {
				if i == lastServed {
					serveIdx(qi, false)
					return
				}
			}
			// Anticipate: the owner is computing toward its next request —
			// hold the disk briefly (its arrival event will retrigger us).
			a := apps[lastServed]
			if !a.done && a.state == msCompute && a.opsLeft > 0 {
				return
			}
		}
		if len(diskQueue) == 0 {
			return
		}
		serveIdx(0, diskQueue[0] != lastServed)
	}

	// advance moves app i through its loop after finishing a stage.
	var advance func(i int)
	advance = func(i int) {
		a := apps[i]
		if a.done {
			return
		}
		switch a.state {
		case msCompute:
			if a.cpuLeft > 1e-12 {
				return // still computing; checkpoint will fire again
			}
			if a.opsLeft <= 0 {
				// No I/O phase left: possibly think, then done.
				if a.thinkLeft > 1e-12 {
					a.state = msThink
					push(now+a.thinkLeft, 2, i)
					a.thinkLeft = 0
					return
				}
				a.done = true
				a.state = msDone
				a.finish = now
				return
			}
			a.state = msQueued
			diskQueue = append(diskQueue, i)
			startService()
		case msThink:
			a.done = true
			a.state = msDone
			a.finish = now
		case msService:
			a.opsLeft--
			if a.thinkPer > 1e-12 {
				a.state = msThink
				push(now+a.thinkPer, 2, i)
				return
			}
			a.startNextIteration(now)
		}
	}

	scheduleCheckpoint := func() {
		comp := computing()
		if len(comp) == 0 {
			return
		}
		share := m.cfg.GuestCPUCap / float64(len(comp))
		if share > 1 {
			share = 1
		}
		soonest := math.Inf(1)
		who := -1
		for _, i := range comp {
			t := apps[i].cpuLeft / share
			if t < soonest {
				soonest, who = t, i
			}
		}
		push(now+soonest, 0, who)
	}

	// Seed: every app starts computing (or straight to I/O if no CPU).
	for i, a := range apps {
		if a.cpuLeft <= 1e-12 {
			a.state = msCompute
			a.cpuLeft = 0
			advance(i)
		}
	}
	scheduleCheckpoint()

	const maxEvents = 50_000_000
	for steps := 0; events.Len() > 0; steps++ {
		if steps > maxEvents {
			return nil, fmt.Errorf("xen: microsim exceeded %d events", maxEvents)
		}
		ev := heap.Pop(&events).(microEvent)
		if ev.time < now-1e-9 {
			return nil, fmt.Errorf("xen: microsim time went backwards")
		}
		now = ev.time
		settleCPU()
		switch ev.kind {
		case 0: // CPU checkpoint: whoever hit zero advances
			for i, a := range apps {
				if !a.done && a.state == msCompute && a.cpuLeft <= 1e-9 {
					a.cpuLeft = 0
					advance(i)
				}
			}
		case 1: // disk service complete
			diskBusy = -1
			advance(ev.app)
			startService()
		case 2: // think done
			a := apps[ev.app]
			if a.state == msThink {
				if a.opsLeft <= 0 && a.cpuLeft <= 1e-12 {
					advance(ev.app)
				} else {
					a.startNextIteration(now)
				}
			}
		}
		scheduleCheckpoint()
	}

	out := make([]MicroResult, n)
	for i, a := range apps {
		if !a.done {
			return nil, fmt.Errorf("xen: microsim app %s never finished", a.spec.Name)
		}
		r := MicroResult{Runtime: a.finish}
		if a.totalOps > 0 && a.finish > 0 {
			r.IOPS = float64(a.totalOps) / a.finish
		}
		out[i] = r
	}
	return out, nil
}

// startNextIteration begins the next compute slice (or finishes).
func (a *microApp) startNextIteration(now float64) {
	if a.opsLeft <= 0 && a.cpuLeft <= 1e-12 {
		a.done = true
		a.state = msDone
		a.finish = now
		return
	}
	a.state = msCompute
	a.cpuLeft = a.cpuPerOp
}

// The micro-simulator cross-validates the fluid fixed-point model: the two
// independently-built executions of the same host must agree on the
// qualitative interference structure, and quantitatively within bands.

func microHost(t *testing.T) (*MicroSim, *Host) {
	t.Helper()
	cfg := DefaultHost()
	return NewMicroSim(cfg), newTestHost(t)
}

func TestMicroSimSoloCPUOnly(t *testing.T) {
	ms, _ := microHost(t)
	res, err := ms.Run([]AppSpec{{Name: "calc", CPUSeconds: 100, ReqSizeKB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].Runtime-100) > 1 {
		t.Fatalf("solo CPU runtime %v want 100", res[0].Runtime)
	}
}

func TestMicroSimTwoCPUHogsAgreeWithFluid(t *testing.T) {
	ms, _ := microHost(t)
	a := AppSpec{Name: "a", CPUSeconds: 50, ReqSizeKB: 4}
	b := AppSpec{Name: "b", CPUSeconds: 50, ReqSizeKB: 4}
	res, err := ms.Run([]AppSpec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if math.Abs(r.Runtime-100) > 2 {
			t.Fatalf("processor sharing broken: runtime %v want ≈100", r.Runtime)
		}
	}
}

func TestMicroSimSoloReaderMatchesFluidWithinBand(t *testing.T) {
	ms, h := microHost(t)
	// Depth-1 reader: both models describe a synchronous request loop.
	app := AppSpec{Name: "sr", ReadOps: 20000, ReqSizeKB: 64, Seq: 1.0, CPUSeconds: 2}
	micro, err := ms.Run([]AppSpec{app})
	if err != nil {
		t.Fatal(err)
	}
	fluid, err := h.Steady([]AppSpec{app})
	if err != nil {
		t.Fatal(err)
	}
	ratio := micro[0].Runtime / fluid[0].Runtime
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("solo reader: micro %v vs fluid %v (ratio %v)", micro[0].Runtime, fluid[0].Runtime, ratio)
	}
}

func TestMicroSimInterferenceStructure(t *testing.T) {
	// The headline structure of Table 1 must emerge from per-request
	// mechanics with no calibration: a CPU hog barely hurts a reader, a
	// second reader devastates it.
	ms, _ := microHost(t)
	reader := AppSpec{Name: "r", ReadOps: 20000, ReqSizeKB: 64, Seq: 1.0, CPUSeconds: 2}
	solo, err := ms.Run([]AppSpec{reader})
	if err != nil {
		t.Fatal(err)
	}
	hog := AppSpec{Name: "hog", CPUSeconds: solo[0].Runtime * 2, ReqSizeKB: 4}
	withHog, err := ms.Run([]AppSpec{reader, hog})
	if err != nil {
		t.Fatal(err)
	}
	twin := reader
	twin.Name = "r2"
	withTwin, err := ms.Run([]AppSpec{reader, twin})
	if err != nil {
		t.Fatal(err)
	}
	hogSlow := withHog[0].Runtime / solo[0].Runtime
	twinSlow := withTwin[0].Runtime / solo[0].Runtime
	if hogSlow > 1.3 {
		t.Fatalf("CPU hog slowed the reader %vx; per-request mechanics disagree with Table 1", hogSlow)
	}
	if twinSlow < 4 {
		t.Fatalf("twin reader slowed only %vx; expected severe seek thrash", twinSlow)
	}
}

func TestMicroSimAgreesWithFluidOnReaderPair(t *testing.T) {
	// The quantitative cross-check: two colliding sequential readers. The
	// fluid model was calibrated against the paper's ≈10×; the independent
	// per-request execution must land in the same regime (within 2× of the
	// fluid slowdown).
	ms, h := microHost(t)
	reader := AppSpec{Name: "r", ReadOps: 20000, ReqSizeKB: 64, Seq: 1.0, CPUSeconds: 2}
	twin := reader
	twin.Name = "r2"

	microSolo, err := ms.Run([]AppSpec{reader})
	if err != nil {
		t.Fatal(err)
	}
	microPair, err := ms.Run([]AppSpec{reader, twin})
	if err != nil {
		t.Fatal(err)
	}
	microSlow := microPair[0].Runtime / microSolo[0].Runtime

	fluid, err := h.Steady([]AppSpec{reader, twin})
	if err != nil {
		t.Fatal(err)
	}
	fluidSlow := fluid[0].Slowdown

	ratio := microSlow / fluidSlow
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("reader-pair slowdown: micro %.1fx vs fluid %.1fx (ratio %.2f)", microSlow, fluidSlow, ratio)
	}
}

func TestMicroSimThinkOnlyApp(t *testing.T) {
	ms, _ := microHost(t)
	res, err := ms.Run([]AppSpec{{Name: "sleepy", CPUSeconds: 5, ThinkSeconds: 95, ReqSizeKB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].Runtime-100) > 1 {
		t.Fatalf("think-only runtime %v want 100", res[0].Runtime)
	}
}

func TestMicroSimRejectsEndless(t *testing.T) {
	ms, _ := microHost(t)
	if _, err := ms.Run([]AppSpec{Idle()}); err == nil {
		t.Fatal("endless app accepted")
	}
	if _, err := ms.Run(nil); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestMicroSimDeterministic(t *testing.T) {
	ms, _ := microHost(t)
	apps := []AppSpec{
		{Name: "a", ReadOps: 5000, ReqSizeKB: 64, Seq: 1, CPUSeconds: 3},
		{Name: "b", ReadOps: 3000, WriteOps: 1000, ReqSizeKB: 16, Seq: 0.5, CPUSeconds: 10},
	}
	r1, err := ms.Run(apps)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ms.Run(apps)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] != r2[0] || r1[1] != r2[1] {
		t.Fatal("microsim not deterministic")
	}
}
