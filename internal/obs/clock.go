package obs

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts every timing primitive the serving daemon uses: reading
// the current instant, measuring elapsed time, and arming one-shot timers.
// Production code runs on Wall; the deterministic simulation harness
// (internal/dst) substitutes a VirtualClock so the entire daemon advances
// only when the test calls Advance.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
	// AfterFunc arms a one-shot timer that calls fn after d has elapsed
	// on this clock. fn runs on its own goroutine for the wall clock and
	// on the Advance goroutine for a VirtualClock; either way it must not
	// block indefinitely.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is the stoppable handle returned by Clock.AfterFunc. Stop reports
// whether the call prevented the timer from firing.
type Timer interface {
	Stop() bool
}

// Wall is the production clock, backed by the runtime's real timers.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time                  { return time.Now() }
func (wallClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (wallClock) AfterFunc(d time.Duration, fn func()) Timer {
	return time.AfterFunc(d, fn)
}

// VirtualClock is a manually advanced clock with deterministic timer
// delivery. Timers due at or before the new instant fire synchronously
// inside Advance, ordered by deadline and then by arm order, with the
// clock set to each timer's deadline while its callback runs. Callbacks
// execute without the clock lock held, so they may read Now or arm new
// timers (which fire in the same Advance if still due).
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	seq    int64
	timers timerHeap
}

// NewVirtualClock returns a VirtualClock whose Now starts at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *VirtualClock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// AfterFunc arms fn to run when the clock is advanced to or past d from
// the current virtual instant. A non-positive d fires on the next Advance
// (including Advance(0)), mirroring the runtime's "already expired" case
// without spawning a goroutine.
func (c *VirtualClock) AfterFunc(d time.Duration, fn func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &virtualTimer{
		clock: c,
		when:  c.now.Add(d),
		seq:   c.seq,
		fn:    fn,
	}
	c.seq++
	heap.Push(&c.timers, t)
	return t
}

// Advance moves the clock forward by d, firing every due timer in
// deterministic order. It returns the number of timers fired. Negative d
// is treated as zero: virtual time never goes backwards.
func (c *VirtualClock) Advance(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	target := c.now.Add(d)
	fired := 0
	for {
		if len(c.timers) == 0 || c.timers[0].when.After(target) {
			break
		}
		t := heap.Pop(&c.timers).(*virtualTimer)
		if t.stopped {
			continue
		}
		t.fired = true
		// Deliver the timer at its own deadline, not the target, so a
		// callback reading Now sees the instant it was scheduled for.
		if t.when.After(c.now) {
			c.now = t.when
		}
		c.mu.Unlock()
		t.fn()
		c.mu.Lock()
		fired++
	}
	if target.After(c.now) {
		c.now = target
	}
	c.mu.Unlock()
	return fired
}

type virtualTimer struct {
	clock   *VirtualClock
	when    time.Time
	seq     int64
	fn      func()
	index   int
	stopped bool
	fired   bool
}

func (t *virtualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// timerHeap orders timers by deadline, breaking ties by arm order so
// delivery is deterministic regardless of heap internals.
type timerHeap []*virtualTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*virtualTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
