package xen

import (
	"fmt"
	"math"
	"sort"
)

// HostConfig describes one physical machine of the testbed. The defaults
// (DefaultHost) are calibrated so that the Table 1 interference ratios of
// the paper are reproduced; see host_test.go for the asserted bands.
type HostConfig struct {
	// GuestCPUCap is the CPU capacity shared by guest vCPUs. The paper's
	// testbed multiplexes both guest vCPUs on one core (Table 1's CPU/CPU
	// slowdown of ≈2×), so the default is 1.0.
	GuestCPUCap float64
	// Dom0CPUCap is the CPU capacity available to the driver domain.
	Dom0CPUCap float64
	// Dom0PerOpMs is the driver-domain CPU cost per I/O request (event
	// channel, grant mapping, block backend).
	Dom0PerOpMs float64
	// Dom0PerKBMs is the driver-domain CPU cost per KB transferred (page
	// grant copies). This is what makes Dom0 CPU an informative model
	// feature beyond raw request rates.
	Dom0PerKBMs float64
	// CrossDelayMs is the additional per-request latency an application
	// suffers when a co-located guest burns CPU while also sharing the
	// I/O path: the driver domain's processing of this app's requests gets
	// delayed behind the busy vCPU (the Table 1 "CPU & I/O" 16× effect).
	// The delay applied is CrossDelayMs · (other guests' CPU use) ·
	// (other guests' share of the I/O stream).
	CrossDelayMs float64
	// Dom0StealFrac is the fraction of Dom0's CPU consumption that is stolen
	// from the guest CPU capacity (interrupt handling and event-channel
	// processing run on the guests' core). This produces Table 1's 1.26×
	// slowdown of a pure CPU task next to an I/O-heavy neighbour.
	Dom0StealFrac float64
	// Disk is the storage device model.
	Disk DiskParams

	// MaxIters and Damping control the fixed-point solver.
	MaxIters int
	Damping  float64

	// MicroSliceMs is the per-stream disk slice of the per-request
	// micro-simulator (see microsim.go); zero takes the default.
	MicroSliceMs float64
}

// DefaultHost returns the calibrated testbed machine: one core's worth of
// guest CPU, a dedicated core for Dom0, and the HDD of the paper's Dell
// machines.
func DefaultHost() HostConfig {
	return HostConfig{
		GuestCPUCap:   1.0,
		Dom0CPUCap:    1.0,
		Dom0PerOpMs:   0.25,
		Dom0PerKBMs:   0.004,
		CrossDelayMs:  3.0,
		Dom0StealFrac: 0.25,
		Disk:          HDD(),
		MaxIters:      3000,
		Damping:       0.15,
	}
}

// Host evaluates steady-state contention between co-located applications.
type Host struct {
	cfg HostConfig
}

// NewHost validates the configuration and returns a Host.
func NewHost(cfg HostConfig) (*Host, error) {
	if cfg.GuestCPUCap <= 0 || cfg.Dom0CPUCap <= 0 {
		return nil, fmt.Errorf("xen: CPU capacities must be positive, got guest=%v dom0=%v", cfg.GuestCPUCap, cfg.Dom0CPUCap)
	}
	if cfg.Disk.TransferMsPerKB < 0 || cfg.Disk.OverheadMs < 0 {
		return nil, fmt.Errorf("xen: invalid disk parameters %+v", cfg.Disk)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 3000
	}
	if cfg.Damping <= 0 || cfg.Damping > 1 {
		cfg.Damping = 0.15
	}
	return &Host{cfg: cfg}, nil
}

// Config returns the host configuration.
func (h *Host) Config() HostConfig { return h.cfg }

// AppSteady is the steady-state behaviour of one application while the
// given co-location lasts.
type AppSteady struct {
	// Runtime is the completion time of a finite app under these steady
	// conditions (Inf for endless generators).
	Runtime float64
	// Slowdown is Runtime relative to the same app running alone.
	Slowdown float64
	// ProgressRate is 1/Slowdown: solo-seconds of progress per wall second.
	ProgressRate float64
	// IOPS is the achieved request throughput (reads+writes per second).
	IOPS float64
	// ReadPerSec and WritePerSec split IOPS by direction.
	ReadPerSec, WritePerSec float64
	// GuestCPU is the guest vCPU utilization (0..GuestCPUCap).
	GuestCPU float64
	// Dom0CPU is the driver-domain CPU utilization attributable to this
	// app's I/O.
	Dom0CPU float64
	// LatencyMs is the per-request I/O latency.
	LatencyMs float64
}

// Steady solves the contention fixed point for a set of co-located apps and
// returns the steady-state behaviour of each. Finite apps are assumed to be
// mid-execution (their demands persist for the duration of the phase);
// endless apps persist by construction.
//
// A call allocates its working vectors once, up front; the fixed-point
// loop itself allocates nothing.
func (h *Host) Steady(apps []AppSpec) ([]AppSteady, error) {
	n := len(apps)
	if n == 0 {
		return nil, fmt.Errorf("xen: no applications")
	}
	for i := range apps {
		if err := apps[i].Validate(); err != nil {
			return nil, err
		}
	}

	// One backing array holds every per-app vector of the solve. The
	// iteration-local ones (demands onward) are rewritten in full on every
	// pass before they are read.
	buf := make([]float64, 15*n)
	vec := func(k int) []float64 { return buf[k*n : (k+1)*n : (k+1)*n] }
	soloLat := vec(0) // per-request latency when alone (ms)
	soloRt := vec(1)  // solo runtime of finite apps (s)
	lat := vec(2)     // current latency estimate (ms)
	stretch := vec(3) // CPU stretch factor (>=1)
	iops := vec(4)
	cpuUsed := vec(5)
	ceils := vec(6) // achievable IOPS ceiling, refreshed each iteration
	demands, alloc := vec(7), vec(8)
	newLat, newStretch := vec(9), vec(10)
	service := vec(11) // ms of device occupancy per request
	desired := vec(12) // requests/second the app would issue unconstrained
	wantTime, tAlloc := vec(13), vec(14)
	order := make([]int, n)

	for i := range apps {
		a := &apps[i]
		soloLat[i] = h.soloLatencyMs(a)
		if !a.Endless {
			soloRt[i] = h.finiteRuntime(a, 1, h.soloIOPSCeiling(a))
		}
	}

	// Iterated state.
	copy(lat, soloLat)
	for i := range apps {
		stretch[i] = 1
		ceils[i] = h.soloIOPSCeiling(&apps[i])
	}
	// Initialize rates from the solo solution.
	for i := range apps {
		a := &apps[i]
		iops[i] = h.initialIOPS(a, soloLat[i], soloRt[i])
		cpuUsed[i] = h.initialCPU(a, soloRt[i])
	}

	d := h.cfg.Damping
	for iter := 0; iter < h.cfg.MaxIters; iter++ {
		totalIOPS := 0.0
		for i := range apps {
			totalIOPS += iops[i]
		}

		// Dom0 load: if demand exceeds its capacity, all I/O is throttled
		// proportionally; whatever Dom0 does consume steals a fraction of
		// the guests' CPU capacity (interrupt/event-channel work).
		dom0Demand := 0.0
		for i := range apps {
			dom0Demand += iops[i] * h.dom0PerOpMs(&apps[i]) / 1000
		}
		dom0Throttle := 1.0
		if dom0Demand > h.cfg.Dom0CPUCap {
			dom0Throttle = h.cfg.Dom0CPUCap / dom0Demand
		}
		dom0Used := math.Min(dom0Demand, h.cfg.Dom0CPUCap)
		guestCap := h.cfg.GuestCPUCap - h.cfg.Dom0StealFrac*dom0Used
		if guestCap < 0.05*h.cfg.GuestCPUCap {
			guestCap = 0.05 * h.cfg.GuestCPUCap
		}

		// Guest CPU water-fill over current demands.
		for i := range apps {
			demands[i] = h.cpuDemand(&apps[i], lat[i])
		}
		waterfillInto(alloc, order, demands, guestCap)

		// Per-app effective service time (device cost at disrupted
		// sequentiality, plus the Dom0 cross delay, during which the disk
		// sits idle on this stream).
		for i := range apps {
			a := &apps[i]
			othersIOPS := totalIOPS - iops[i]
			otherShare := 0.0
			if totalIOPS > 1e-12 {
				otherShare = othersIOPS / totalIOPS
			}
			cEff := h.mixedCostMs(a, h.effSeq(a, iops[i], othersIOPS))

			otherCPU := 0.0
			for j := range apps {
				if j != i {
					otherCPU += cpuUsed[j]
				}
			}
			crossDelay := h.cfg.CrossDelayMs * otherCPU * otherShare

			service[i] = cEff + crossDelay
			newLat[i] = service[i] + h.dom0PerOpMs(a)/dom0Throttle

			if alloc[i] > 1e-12 && demands[i] > alloc[i] {
				newStretch[i] = demands[i] / alloc[i]
			} else {
				newStretch[i] = 1
			}

			closedLoop := a.depth() * 1000 / newLat[i]
			desired[i] = 0 // a finite app without I/O issues none
			if a.Endless {
				desired[i] = math.Min(a.TargetReadRate+a.TargetWriteRate, closedLoop)
			} else if a.TotalOps() > 0 {
				rtUnc := h.finiteRuntime(a, newStretch[i], closedLoop)
				desired[i] = a.TotalOps() / rtUnc
			}
		}

		// The disk scheduler shares device time fairly among demanding
		// streams: each stream's long-run busy-time entitlement is
		// water-filled from its *average* demand...
		for i := range apps {
			wantTime[i] = desired[i] * service[i] / 1000
		}
		waterfillInto(tAlloc, order, wantTime, 1.0)
		totalAlloc := 0.0
		for _, v := range tAlloc {
			totalAlloc += v
		}

		// ...but during its own I/O phases an app bursts into whatever
		// device time the others leave idle. Using the average entitlement
		// as the burst ceiling would double-count the app's CPU and think
		// time (a mostly-idle mail server would appear to throttle its own
		// bursts).
		maxDelta := 0.0
		for i := range apps {
			a := &apps[i]
			idleShare := 1 - (totalAlloc - tAlloc[i])
			if idleShare < 0.05 {
				idleShare = 0.05
			}
			ioCeiling := a.depth() * 1000 / newLat[i] // closed loop on latency
			if service[i] > 1e-12 {
				ioCeiling = math.Min(ioCeiling, idleShare*1000/service[i])
			}
			ioCeiling *= dom0Throttle
			ceils[i] = (1-d)*ceils[i] + d*ioCeiling
			ioCeiling = ceils[i]
			var nIOPS, nCPU float64
			if a.Endless {
				nIOPS = math.Min(desired[i], ioCeiling)
				nCPU = alloc[i]
				if a.CPUDemand < nCPU {
					nCPU = a.CPUDemand
				}
			} else {
				rt := h.finiteRuntime(a, newStretch[i], ioCeiling)
				nIOPS = a.TotalOps() / rt
				nCPU = a.CPUSeconds / rt // actual CPU seconds consumed per wall second
			}
			for _, delta := range []float64{math.Abs(nIOPS - iops[i]), math.Abs(nCPU - cpuUsed[i]), math.Abs(newLat[i] - lat[i])} {
				if delta > maxDelta {
					maxDelta = delta
				}
			}
			iops[i] = (1-d)*iops[i] + d*nIOPS
			cpuUsed[i] = (1-d)*cpuUsed[i] + d*nCPU
			lat[i] = (1-d)*lat[i] + d*newLat[i]
			stretch[i] = (1-d)*stretch[i] + d*newStretch[i]
		}
		if maxDelta < 1e-10 {
			break
		}
	}

	out := make([]AppSteady, n)
	for i := range apps {
		a := &apps[i]
		rf := a.ReadFraction()
		s := AppSteady{
			IOPS:        iops[i],
			ReadPerSec:  iops[i] * rf,
			WritePerSec: iops[i] * (1 - rf),
			GuestCPU:    cpuUsed[i],
			Dom0CPU:     iops[i] * h.dom0PerOpMs(a) / 1000,
			LatencyMs:   lat[i],
		}
		if a.Endless {
			s.Runtime = math.Inf(1)
			s.Slowdown = 1
			s.ProgressRate = 1
		} else {
			rt := h.finiteRuntime(a, stretch[i], ceils[i])
			s.Runtime = rt
			s.Slowdown = rt / soloRt[i]
			if s.Slowdown < 1 {
				// Numerical fuzz can land microscopically below 1; a co-run
				// can never beat solo in this model.
				s.Slowdown = 1
				s.Runtime = soloRt[i]
			}
			s.ProgressRate = 1 / s.Slowdown
		}
		out[i] = s
	}
	return out, nil
}

// soloLatencyMs returns the per-request latency of app a running alone.
func (h *Host) soloLatencyMs(a *AppSpec) float64 {
	return h.mixedCostMs(a, a.Seq) + h.dom0PerOpMs(a)
}

// effSeq returns the effective sequentiality of app a's stream. The
// probability that one of my requests pays a seek is roughly the chance a
// competitor's request was served since my previous one, which grows with
// the competitor's request rate relative to mine and saturates smoothly:
// r/(1+r) where r = othersRate/myRate. A slow competitor barely dents a
// fast sequential stream; an equally hungry one interleaves half the
// requests; a much faster one interleaves nearly all of them.
func (h *Host) effSeq(a *AppSpec, myIOPS, othersIOPS float64) float64 {
	if othersIOPS <= 0 {
		return a.Seq
	}
	if myIOPS < 1 {
		myIOPS = 1
	}
	r := othersIOPS / myIOPS
	interleave := r / (1 + r)
	return a.Seq * (1 - h.cfg.Disk.SeqDisruption*interleave)
}

// soloIOPSCeiling returns the request rate app a can reach when alone:
// closed-loop on its own latency, capped by the device.
func (h *Host) soloIOPSCeiling(a *AppSpec) float64 {
	lat := h.soloLatencyMs(a)
	device := 1000 / h.mixedCostMs(a, a.Seq)
	return math.Min(a.depth()*1000/lat, device)
}

// finiteRuntime computes the completion time of a finite app whose CPU is
// stretched by the given factor and whose I/O proceeds at iopsEff.
func (h *Host) finiteRuntime(a *AppSpec, stretchFactor, iopsEff float64) float64 {
	rt := a.CPUSeconds*stretchFactor + a.ThinkSeconds
	if ops := a.TotalOps(); ops > 0 {
		if iopsEff < 1e-9 {
			iopsEff = 1e-9
		}
		rt += ops / iopsEff
	}
	return rt
}

// mixedCostMs returns the read/write-weighted device service time at the
// given effective sequentiality.
func (h *Host) mixedCostMs(a *AppSpec, effSeq float64) float64 {
	rf := a.ReadFraction()
	return rf*h.cfg.Disk.CostMs(effSeq, a.ReqSizeKB, false) +
		(1-rf)*h.cfg.Disk.CostMs(effSeq, a.ReqSizeKB, true)
}

// dom0PerOpMs returns the driver-domain CPU milliseconds consumed per
// request of app a.
func (h *Host) dom0PerOpMs(a *AppSpec) float64 {
	return h.cfg.Dom0PerOpMs + h.cfg.Dom0PerKBMs*a.ReqSizeKB
}

// cpuDemand returns the guest CPU fraction app a would consume at the
// current latency if CPU were uncontended.
func (h *Host) cpuDemand(a *AppSpec, latMs float64) float64 {
	if a.Endless {
		return a.CPUDemand
	}
	rt := a.CPUSeconds + a.TotalOps()/a.depth()*latMs/1000 + a.ThinkSeconds
	if rt <= 0 {
		return 0
	}
	return a.CPUSeconds / rt
}

func (h *Host) initialIOPS(a *AppSpec, soloLatMs, soloRt float64) float64 {
	if a.Endless {
		closedLoop := a.depth() / (soloLatMs / 1000)
		return math.Min(a.TargetReadRate+a.TargetWriteRate, closedLoop)
	}
	if soloRt <= 0 {
		return 0
	}
	return a.TotalOps() / soloRt
}

func (h *Host) initialCPU(a *AppSpec, soloRt float64) float64 {
	if a.Endless {
		return a.CPUDemand
	}
	if soloRt <= 0 {
		return 0
	}
	return a.CPUSeconds / soloRt
}

// waterfillInto distributes capacity among demands with equal entitlements
// and writes each share to alloc: every demand below its fair share is
// fully satisfied, and the remainder is split equally among the rest — the
// behaviour of Xen's credit scheduler with equal weights. order is scratch
// space of len(demands). Demands are visited in ascending order. Up to 12
// entries that is the insertion sort sort.Slice itself runs, done in place
// and without allocating, so ties are broken as sort.Slice breaks them and
// every share matches it bit for bit.
func waterfillInto(alloc []float64, order []int, demands []float64, capacity float64) {
	n := len(demands)
	if n == 0 || capacity <= 0 {
		clear(alloc[:n])
		return
	}
	for i := range order[:n] {
		order[i] = i
	}
	less := func(a, b int) bool { return demands[order[a]] < demands[order[b]] }
	if n <= 12 {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && less(j, j-1); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	} else {
		sort.Slice(order[:n], less)
	}
	remaining := capacity
	left := n
	for _, i := range order[:n] {
		share := remaining / float64(left)
		give := demands[i]
		if give > share {
			give = share
		}
		alloc[i] = give
		remaining -= give
		left--
	}
}
