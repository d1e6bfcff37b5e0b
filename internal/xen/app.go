package xen

import (
	"errors"
	"fmt"
)

// AppSpec describes a workload as the host simulator executes it. Both the
// paper's eight real benchmarks and the synthetic profiling workloads of
// Section 3.1 are expressed in these terms.
//
// Two execution styles are supported:
//
//   - Finite applications (Endless=false) carry total demands: CPUSeconds of
//     guest computation, ReadOps/WriteOps requests, ThinkSeconds of idle
//     time. They run to completion; the simulator reports runtime and IOPS.
//
//   - Background generators (Endless=true) are the paper's profiling
//     workloads: a CPU spinner at CPUDemand utilization plus a closed-loop
//     I/O thread that tries to sustain TargetReadRate/TargetWriteRate
//     requests per second forever.
type AppSpec struct {
	Name string

	// Finite totals (used when Endless is false).
	CPUSeconds   float64 // guest CPU work at full speed
	ReadOps      float64 // total read requests
	WriteOps     float64 // total write requests
	ThinkSeconds float64 // idle/waiting time not on CPU or disk

	// Request shape.
	ReqSizeKB float64 // request size (KB)
	Seq       float64 // sequentiality of the I/O stream, 0..1

	// Endless background generator knobs (used when Endless is true).
	Endless         bool
	CPUDemand       float64 // 0..1 fraction of one vCPU the spinner wants
	TargetReadRate  float64 // read requests/second the generator tries to issue
	TargetWriteRate float64 // write requests/second

	// MaxIODepth caps how many requests the app keeps in flight. Depth 1 is
	// a synchronous reader; data-intensive apps with readahead get more.
	MaxIODepth float64
}

// ErrBadSpec reports an invalid application specification.
var ErrBadSpec = errors.New("xen: invalid application spec")

// Validate checks the spec for impossible values.
func (a AppSpec) Validate() error {
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: %s: %s", ErrBadSpec, a.Name, fmt.Sprintf(format, args...))
	}
	if a.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadSpec)
	}
	if a.Seq < 0 || a.Seq > 1 {
		return bad("sequentiality %v outside [0,1]", a.Seq)
	}
	if a.ReqSizeKB <= 0 {
		return bad("request size %v must be positive", a.ReqSizeKB)
	}
	if a.Endless {
		if a.CPUDemand < 0 || a.CPUDemand > 1 {
			return bad("CPU demand %v outside [0,1]", a.CPUDemand)
		}
		if a.TargetReadRate < 0 || a.TargetWriteRate < 0 {
			return bad("negative target I/O rate")
		}
		return nil
	}
	if a.CPUSeconds < 0 || a.ReadOps < 0 || a.WriteOps < 0 || a.ThinkSeconds < 0 {
		return bad("negative demand totals")
	}
	if a.CPUSeconds == 0 && a.ReadOps == 0 && a.WriteOps == 0 {
		return bad("no work at all")
	}
	return nil
}

// TotalOps returns the total number of I/O requests of a finite app.
func (a *AppSpec) TotalOps() float64 { return a.ReadOps + a.WriteOps }

// ReadFraction returns the share of reads in the app's I/O mix (0.5 for an
// app with no I/O, which keeps downstream arithmetic well-defined).
func (a *AppSpec) ReadFraction() float64 {
	if a.Endless {
		tot := a.TargetReadRate + a.TargetWriteRate
		if tot == 0 {
			return 0.5
		}
		return a.TargetReadRate / tot
	}
	tot := a.TotalOps()
	if tot == 0 {
		return 0.5
	}
	return a.ReadOps / tot
}

// depth returns the I/O queue depth, defaulting to 1 (synchronous).
func (a *AppSpec) depth() float64 {
	if a.MaxIODepth < 1 {
		return 1
	}
	return a.MaxIODepth
}

// Idle returns an endless spec that consumes nothing — the "other VM idle"
// case used for no-interference baselines.
func Idle() AppSpec {
	return AppSpec{Name: "idle", Endless: true, ReqSizeKB: 4}
}
