package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// PendingTimers reports how many armed, unfired timers are outstanding.
func (c *VirtualClock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

func TestWallClockBasics(t *testing.T) {
	before := time.Now()
	now := Wall.Now()
	if now.Before(before) {
		t.Fatalf("Wall.Now went backwards: %v < %v", now, before)
	}
	if d := Wall.Since(before); d < 0 {
		t.Fatalf("Wall.Since negative: %v", d)
	}
	done := make(chan struct{})
	tm := Wall.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wall AfterFunc never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire reported true")
	}
}

func TestVirtualClockAdvanceFiresInOrder(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewVirtualClock(start)
	var got []string
	c.AfterFunc(30*time.Millisecond, func() { got = append(got, "c") })
	c.AfterFunc(10*time.Millisecond, func() { got = append(got, "a") })
	c.AfterFunc(10*time.Millisecond, func() { got = append(got, "b") }) // same deadline: arm order
	if fired := c.Advance(20 * time.Millisecond); fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("order = %v, want [a b]", got)
	}
	if want := start.Add(20 * time.Millisecond); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
	if fired := c.Advance(10 * time.Millisecond); fired != 1 {
		t.Fatalf("second Advance fired = %d, want 1", fired)
	}
	if fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("final order = %v", got)
	}
}

func TestVirtualClockCallbackSeesOwnDeadline(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewVirtualClock(start)
	var at time.Time
	c.AfterFunc(5*time.Millisecond, func() { at = c.Now() })
	c.Advance(time.Hour)
	if want := start.Add(5 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("callback saw %v, want %v", at, want)
	}
	if want := start.Add(time.Hour); !c.Now().Equal(want) {
		t.Fatalf("Now after Advance = %v, want %v", c.Now(), want)
	}
}

func TestVirtualClockStop(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	fired := false
	tm := c.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	if n := c.Advance(time.Minute); n != 0 {
		t.Fatalf("stopped timer fired (n=%d)", n)
	}
	if fired {
		t.Fatal("stopped timer callback ran")
	}
	if got := c.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers = %d, want 0", got)
	}
}

func TestVirtualClockRearmWithinAdvance(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	var seq []int
	c.AfterFunc(time.Millisecond, func() {
		seq = append(seq, 1)
		c.AfterFunc(time.Millisecond, func() { seq = append(seq, 2) })
	})
	if fired := c.Advance(10 * time.Millisecond); fired != 2 {
		t.Fatalf("fired = %d, want 2 (re-armed timer due in same Advance)", fired)
	}
	if fmt.Sprint(seq) != "[1 2]" {
		t.Fatalf("seq = %v", seq)
	}
}

func TestVirtualClockZeroAndNegative(t *testing.T) {
	start := time.Unix(42, 0)
	c := NewVirtualClock(start)
	ran := false
	c.AfterFunc(0, func() { ran = true })
	c.Advance(0)
	if !ran {
		t.Fatal("zero-duration timer did not fire on Advance(0)")
	}
	c.Advance(-time.Hour)
	if !c.Now().Equal(start) {
		t.Fatalf("negative Advance moved the clock: %v", c.Now())
	}
}

func TestVirtualClockConcurrentArm(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.AfterFunc(time.Duration(i)*time.Millisecond, func() {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}(i)
	}
	wg.Wait()
	c.Advance(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if count != 32 {
		t.Fatalf("count = %d, want 32", count)
	}
}
