package serve

import "sync/atomic"

// Admission is the daemon's backpressure valve: a non-blocking in-flight
// token bucket for the submit path plus a queue-depth bound enforced
// against the placer backlog. A saturated daemon answers 429 with a
// Retry-After hint instead of building an unbounded internal queue — the
// caller owns the retry policy.
//
// The bound checks here are pure — they never mutate the rejection
// counter. Whoever actually turns a "would reject" into a refused request
// (the HTTP layer, the placer's atomic admission) records it once via
// CountRejections, so probing callers (metrics, batch pre-checks) cannot
// inflate the count.
type Admission struct {
	sem      chan struct{}
	maxQueue int

	rejected atomic.Uint64
}

// DefaultMaxInflight bounds concurrent submissions being decided.
const DefaultMaxInflight = 64

// NewAdmission builds the valve. maxInflight <= 0 takes the default;
// maxQueue <= 0 disables the queue-depth bound.
func NewAdmission(maxInflight, maxQueue int) *Admission {
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	return &Admission{
		sem:      make(chan struct{}, maxInflight),
		maxQueue: maxQueue,
	}
}

// TryAcquire claims an in-flight token without blocking. A refusal is not
// counted here — the caller decides whether it becomes a rejected request.
func (a *Admission) TryAcquire() bool {
	select {
	case a.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token claimed with TryAcquire.
func (a *Admission) Release() { <-a.sem }

// ScaledBound resolves the queue bound against the fraction of the
// inventory that is actually schedulable: a cluster serving at half
// capacity queues half as much before shedding, and one with no up
// machines accepts nothing. The bound never scales below one slot's worth
// of queue while any capacity remains, and a disabled bound (maxQueue <= 0)
// stays disabled except for the zero-capacity cutoff. Returns -1 for
// "unbounded" and 0 for "reject everything".
func (a *Admission) ScaledBound(available, total int) int {
	if available <= 0 {
		return 0
	}
	if a.maxQueue <= 0 || total <= 0 {
		return -1
	}
	bound := a.maxQueue * available / total
	if bound < 1 {
		bound = 1
	}
	return bound
}

// CountRejections records n refused submissions. This is the only mutator
// of the rejection count.
func (a *Admission) CountRejections(n int) {
	if n > 0 {
		a.rejected.Add(uint64(n))
	}
}

// Rejected counts admissions refused (inflight and queue-depth combined).
func (a *Admission) Rejected() uint64 { return a.rejected.Load() }
