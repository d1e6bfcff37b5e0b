// Package fault defines deterministic fault-injection plans for the TRACON
// simulator and serving stack. A Plan is pure data: machine crash/recover
// windows, per-slot stall/slowdown intervals, a per-attempt probabilistic
// task-failure rate, a per-attempt timeout, and a bounded retry-with-backoff
// policy. Every query on a Plan is a pure function of the plan itself (the
// probabilistic failures are key-addressed hashes of the plan seed, task ID
// and attempt number — never of call order), so a fault-injected run is
// byte-identical across worker counts and reproducible from the seed, the
// same contract the rest of the repo holds.
//
// The package deliberately imports nothing from the simulator or scheduler:
// it is the bottom of the dependency stack so both internal/sim and
// internal/serve can share one plan format.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Crash takes one machine down at DownAt and, when UpAt > 0, brings it back
// at UpAt. UpAt == 0 (or omitted in JSON) means the machine never recovers
// within the run.
type Crash struct {
	Machine int     `json:"machine"`
	DownAt  float64 `json:"down_at"`
	UpAt    float64 `json:"up_at,omitempty"`
}

// Slowdown dilates one VM slot's progress rate by Factor over [From, To).
// Factor 0 is a full stall (no progress until To); 0.5 halves the rate.
type Slowdown struct {
	Machine int     `json:"machine"`
	Slot    int     `json:"slot"`
	From    float64 `json:"from"`
	To      float64 `json:"to"`
	Factor  float64 `json:"factor"`
}

// RetryPolicy bounds how a failed/evicted/timed-out task attempt is retried.
// The zero value means the defaults: 3 total attempts, 1 s base backoff
// doubling per attempt, capped at 60 s.
type RetryPolicy struct {
	// MaxAttempts is the total number of placement attempts per task
	// (first placement included). 0 means the default of 3.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Backoff is the delay before the first retry, in seconds. 0 means 1 s.
	Backoff float64 `json:"backoff,omitempty"`
	// BackoffFactor multiplies the delay per subsequent retry. 0 means 2.
	BackoffFactor float64 `json:"backoff_factor,omitempty"`
	// MaxBackoff caps the delay, in seconds. 0 means 60 s.
	MaxBackoff float64 `json:"max_backoff,omitempty"`
}

// Retry-policy defaults (see RetryPolicy).
const (
	DefaultMaxAttempts   = 3
	DefaultBackoff       = 1.0
	DefaultBackoffFactor = 2.0
	DefaultMaxBackoff    = 60.0
)

func (r RetryPolicy) maxAttempts() int {
	if r.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return r.MaxAttempts
}

func (r RetryPolicy) backoff() float64 {
	if r.Backoff <= 0 {
		return DefaultBackoff
	}
	return r.Backoff
}

func (r RetryPolicy) factor() float64 {
	if r.BackoffFactor <= 0 {
		return DefaultBackoffFactor
	}
	return r.BackoffFactor
}

func (r RetryPolicy) maxBackoff() float64 {
	if r.MaxBackoff <= 0 {
		return DefaultMaxBackoff
	}
	return r.MaxBackoff
}

// Plan is one deterministic fault-injection schedule. The zero value (and
// an empty JSON object) injects nothing and perturbs nothing.
type Plan struct {
	// Seed keys the probabilistic task failures. Two plans that differ only
	// in Seed fail different (task, attempt) pairs.
	Seed int64 `json:"seed,omitempty"`
	// FailProb is the probability that any single task attempt fails at the
	// moment it would have completed. 0 disables probabilistic failures.
	FailProb float64 `json:"fail_prob,omitempty"`
	// TaskTimeout bounds each placement attempt's wall-clock time in
	// simulated seconds; an attempt still running at its deadline is evicted
	// and retried. 0 disables timeouts. A timeout landing at the same
	// instant as the attempt's completion wins deterministically.
	TaskTimeout float64 `json:"task_timeout,omitempty"`
	// Retry bounds re-placement of failed attempts.
	Retry RetryPolicy `json:"retry,omitempty"`
	// Crashes are machine down/up windows.
	Crashes []Crash `json:"crashes,omitempty"`
	// Slowdowns are per-slot rate dilations.
	Slowdowns []Slowdown `json:"slowdowns,omitempty"`
}

// Validate checks the plan against a cluster of the given size (machines
// with slotsPer VM slots each). machines <= 0 skips the bounds checks, for
// validating a plan before the cluster size is known.
func (p *Plan) Validate(machines, slotsPer int) error {
	if p == nil {
		return nil
	}
	if p.FailProb < 0 || p.FailProb > 1 {
		return fmt.Errorf("fault: fail_prob %v outside [0, 1]", p.FailProb)
	}
	if p.TaskTimeout < 0 {
		return fmt.Errorf("fault: negative task_timeout %v", p.TaskTimeout)
	}
	if p.Retry.MaxAttempts < 0 || p.Retry.Backoff < 0 || p.Retry.BackoffFactor < 0 || p.Retry.MaxBackoff < 0 {
		return fmt.Errorf("fault: negative retry-policy field")
	}
	// Crash windows on the same machine must be disjoint and ordered so the
	// engine's down/up transitions are well defined.
	byMachine := map[int][]Crash{}
	for i, c := range p.Crashes {
		if machines > 0 && (c.Machine < 0 || c.Machine >= machines) {
			return fmt.Errorf("fault: crash %d targets machine %d outside [0, %d)", i, c.Machine, machines)
		}
		if c.DownAt < 0 || math.IsNaN(c.DownAt) || math.IsInf(c.DownAt, 0) {
			return fmt.Errorf("fault: crash %d has invalid down_at %v", i, c.DownAt)
		}
		if c.UpAt != 0 && (c.UpAt <= c.DownAt || math.IsNaN(c.UpAt) || math.IsInf(c.UpAt, 0)) {
			return fmt.Errorf("fault: crash %d has up_at %v not after down_at %v", i, c.UpAt, c.DownAt)
		}
		byMachine[c.Machine] = append(byMachine[c.Machine], c)
	}
	for m, cs := range byMachine {
		sort.Slice(cs, func(i, j int) bool { return cs[i].DownAt < cs[j].DownAt })
		for i := 1; i < len(cs); i++ {
			prev := cs[i-1]
			if prev.UpAt == 0 || cs[i].DownAt < prev.UpAt {
				return fmt.Errorf("fault: overlapping crash windows on machine %d", m)
			}
		}
	}
	for i, s := range p.Slowdowns {
		if machines > 0 && (s.Machine < 0 || s.Machine >= machines) {
			return fmt.Errorf("fault: slowdown %d targets machine %d outside [0, %d)", i, s.Machine, machines)
		}
		if slotsPer > 0 && (s.Slot < 0 || s.Slot >= slotsPer) {
			return fmt.Errorf("fault: slowdown %d targets slot %d outside [0, %d)", i, s.Slot, slotsPer)
		}
		if s.From < 0 || s.To <= s.From || math.IsNaN(s.From) || math.IsInf(s.To, 0) || math.IsNaN(s.To) {
			return fmt.Errorf("fault: slowdown %d has invalid window [%v, %v)", i, s.From, s.To)
		}
		if s.Factor < 0 || s.Factor >= 1 {
			return fmt.Errorf("fault: slowdown %d factor %v outside [0, 1)", i, s.Factor)
		}
	}
	// Slowdown windows on the same slot must be disjoint (a stacked product
	// would be order-dependent in spirit even if not in arithmetic).
	bySlot := map[[2]int][]Slowdown{}
	for _, s := range p.Slowdowns {
		k := [2]int{s.Machine, s.Slot}
		bySlot[k] = append(bySlot[k], s)
	}
	for k, ss := range bySlot {
		sort.Slice(ss, func(i, j int) bool { return ss[i].From < ss[j].From })
		for i := 1; i < len(ss); i++ {
			if ss[i].From < ss[i-1].To {
				return fmt.Errorf("fault: overlapping slowdown windows on machine %d slot %d", k[0], k[1])
			}
		}
	}
	return nil
}

// ForMachines returns a copy of the plan with crashes and slowdowns that
// target machines outside [0, machines) dropped, so one plan file can be
// applied across sweep points of different cluster sizes. The receiver is
// not modified.
func (p *Plan) ForMachines(machines int) *Plan {
	if p == nil {
		return nil
	}
	out := *p
	out.Crashes = nil
	for _, c := range p.Crashes {
		if c.Machine >= 0 && c.Machine < machines {
			out.Crashes = append(out.Crashes, c)
		}
	}
	out.Slowdowns = nil
	for _, s := range p.Slowdowns {
		if s.Machine >= 0 && s.Machine < machines {
			out.Slowdowns = append(out.Slowdowns, s)
		}
	}
	return &out
}

// RetryAllowed reports whether the task may make the given attempt
// (1-based; the first placement is attempt 1).
func (p *Plan) RetryAllowed(attempt int) bool {
	return attempt <= p.Retry.maxAttempts()
}

// RetryDelay returns the backoff before the retry that follows the given
// number of failed attempts: backoff · factor^(failed−1), capped.
func (p *Plan) RetryDelay(failed int) float64 {
	if failed < 1 {
		failed = 1
	}
	d := p.Retry.backoff() * math.Pow(p.Retry.factor(), float64(failed-1))
	if max := p.Retry.maxBackoff(); d > max {
		return max
	}
	return d
}

// FNV-1a 64-bit, folded over fixed-width words so the failure decision is a
// pure function of (seed, task, attempt) — never of event order.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// TaskFails reports whether the given attempt (1-based) of the given task
// fails at the moment it would have completed.
func (p *Plan) TaskFails(taskID int64, attempt int) bool {
	if p == nil || p.FailProb <= 0 {
		return false
	}
	if p.FailProb >= 1 {
		return true
	}
	h := fnvMix(uint64(fnvOffset64), uint64(p.Seed))
	h = fnvMix(h, uint64(taskID))
	h = fnvMix(h, uint64(attempt))
	// Top 53 bits → uniform float in [0, 1).
	u := h >> 11
	return float64(u)/float64(1<<53) < p.FailProb
}

// RateFactor returns the rate multiplier for (machine, slot) at time t:
// 1 outside every slowdown window, the window's Factor inside (windows on
// one slot are disjoint by Validate; half-open [From, To)).
func (p *Plan) RateFactor(machine, slot int, t float64) float64 {
	if p == nil {
		return 1
	}
	for _, s := range p.Slowdowns {
		if s.Machine == machine && s.Slot == slot && t >= s.From && t < s.To {
			return s.Factor
		}
	}
	return 1
}

// BoundaryKind labels one timeline boundary.
type BoundaryKind int

// Boundary kinds, in tie-break order: at one instant a machine goes down
// before it comes up (disjoint windows make simultaneous down/up on one
// machine an adjacent-window seam: the up of the earlier window must land
// before the down of the later one, so Up orders first).
const (
	BoundaryUp BoundaryKind = iota
	BoundaryDown
	BoundarySlowStart
	BoundarySlowEnd
)

// Boundary is one scheduled fault transition.
type Boundary struct {
	T       float64
	Kind    BoundaryKind
	Machine int
	Slot    int // -1 for machine boundaries
}

// Timeline returns every crash/recover and slowdown start/end boundary in
// deterministic order (time, then kind, then machine, then slot).
func (p *Plan) Timeline() []Boundary {
	if p == nil {
		return nil
	}
	var bs []Boundary
	for _, c := range p.Crashes {
		bs = append(bs, Boundary{T: c.DownAt, Kind: BoundaryDown, Machine: c.Machine, Slot: -1})
		if c.UpAt > 0 {
			bs = append(bs, Boundary{T: c.UpAt, Kind: BoundaryUp, Machine: c.Machine, Slot: -1})
		}
	}
	for _, s := range p.Slowdowns {
		bs = append(bs, Boundary{T: s.From, Kind: BoundarySlowStart, Machine: s.Machine, Slot: s.Slot})
		bs = append(bs, Boundary{T: s.To, Kind: BoundarySlowEnd, Machine: s.Machine, Slot: s.Slot})
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].T != bs[j].T {
			return bs[i].T < bs[j].T
		}
		if bs[i].Kind != bs[j].Kind {
			return bs[i].Kind < bs[j].Kind
		}
		if bs[i].Machine != bs[j].Machine {
			return bs[i].Machine < bs[j].Machine
		}
		return bs[i].Slot < bs[j].Slot
	})
	return bs
}

// Load parses a JSON plan. Unknown fields are rejected so a typo'd plan
// fails loudly instead of silently injecting nothing.
func Load(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	p := &Plan{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	if err := p.Validate(0, 0); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadFile reads and parses a JSON plan file.
func LoadFile(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}
