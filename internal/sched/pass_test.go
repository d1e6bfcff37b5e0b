package sched

import (
	"fmt"
	"strings"
	"testing"
)

// scripted is a policy whose batch length and decisions a test fixes:
// batch member i goes to cats[i], and "-" (or a member past the end of
// cats) stays unplaced. It records each batch it is offered.
type scripted struct {
	q       int
	cats    []string
	offered [][]Task
}

func (s *scripted) Name() string   { return fmt.Sprintf("SCRIPT%d", s.q) }
func (s *scripted) BatchSize() int { return s.q }

func (s *scripted) Schedule(batch []Task, _ Counts, _ Load) ([]Placement, error) {
	s.offered = append(s.offered, append([]Task(nil), batch...))
	var out []Placement
	for i, t := range batch {
		if i < len(s.cats) && s.cats[i] != "-" {
			out = append(out, Placement{Task: t, Category: s.cats[i]})
		}
	}
	return out, nil
}

// fakeBacklog is a slice of tasks that logs what Drain asks of it. noOcc
// makes Place skip the pool's Occupy, as a caller that did not occupy its
// VM before the next pop would.
type fakeBacklog struct {
	pool   *FreePool
	tasks  []Task
	noOcc  bool
	events []string
}

func (b *fakeBacklog) Len() int        { return len(b.tasks) }
func (b *fakeBacklog) Task(i int) Task { return b.tasks[i] }

func (b *fakeBacklog) Decided(batch, placed int) {
	b.events = append(b.events, fmt.Sprintf("decided %d/%d", placed, batch))
}

func (b *fakeBacklog) Place(pos int, category string, machine, slot int, _ int64) error {
	t := b.tasks[pos]
	b.events = append(b.events, fmt.Sprintf("%s@%d/%d", t.App, machine, slot))
	if !b.noOcc {
		b.pool.Occupy(machine, slot, t.App)
	}
	return nil
}

func (b *fakeBacklog) Passed(placed []bool) {
	kept := b.tasks[:0]
	for i, t := range b.tasks {
		if i >= len(placed) || !placed[i] {
			kept = append(kept, t)
		}
	}
	b.tasks = kept
	b.events = append(b.events, "passed")
}

// apps returns the backlog's apps in order.
func (b *fakeBacklog) apps() string {
	var out []string
	for _, t := range b.tasks {
		out = append(out, t.App)
	}
	return strings.Join(out, " ")
}

// TestDrain covers the one scheduling pass the simulator and the daemon
// share: when a pass goes, what it offers, the order of pops and places,
// which tasks stay queued, and when the passes stop.
func TestDrain(t *testing.T) {
	for _, c := range []struct {
		name      string
		machines  int
		apps      string  // the backlog, head first; arrival i for the i-th
		q         int     // the policy's batch length
		cats      string  // the policy's decision per batch member
		now, hold float64 // Drain's clock and hold
		noOcc     bool
		events    string // what the backlog saw
		left      string // the backlog after Drain
		err       string // a substring of Drain's error
	}{{
		name: "full passes run until no VM is free", machines: 2,
		apps: "a b c d e", q: 2, cats: "* *",
		events: "decided 2/2 a@0/0 b@0/1 passed decided 2/2 c@1/0 d@1/1 passed",
		left:   "e",
	}, {
		name: "a short pass ends the drain", machines: 4,
		apps: "a b c d e", q: 2, cats: "* -",
		events: "decided 1/2 a@0/0 passed",
		left:   "b c d e",
	}, {
		name: "a pass that places nothing ends the drain", machines: 4,
		apps: "a b", q: 2, cats: "- -",
		events: "decided 0/2 passed",
		left:   "a b",
	}, {
		name: "unplaced members stay in front in order", machines: 4,
		apps: "a b c d e f", q: 4, cats: "- * - *",
		events: "decided 2/4 b@0/0 d@0/1 passed",
		left:   "a c e f",
	}, {
		name: "the hold keeps a short batch back", machines: 4,
		apps: "a b", q: 4, cats: "* *", now: 9.5, hold: 10,
		left: "a b",
	}, {
		name: "the head's wait reaching the hold lets it go", machines: 4,
		apps: "a b", q: 4, cats: "* *", now: 10 - 1e-10, hold: 10,
		events: "decided 2/2 a@0/0 b@0/1 passed",
	}, {
		name: "a full batch does not wait for the hold", machines: 4,
		apps: "a b c", q: 2, cats: "* *", hold: 10,
		events: "decided 2/2 a@0/0 b@0/1 passed",
		left:   "c",
	}, {
		name: "each place occupies its VM before the next pop", machines: 1,
		apps: "a b", q: 2, cats: "<empty> a",
		events: "decided 2/2 a@0/0 b@0/1 passed",
	}, {
		name: "a place that skips the occupy leaves the next pop nothing", machines: 1,
		apps: "a b", q: 2, cats: "<empty> a", noOcc: true,
		events: "decided 2/2 a@0/0",
		left:   "a b",
		err:    `sched: SCRIPT2 chose category "a" with no free VM`,
	}, {
		name: "an impossible placement names the policy and the category", machines: 2,
		apps: "a", q: 1, cats: "zzz",
		events: "decided 1/1",
		left:   "a",
		err:    `SCRIPT1 chose category "zzz"`,
	}} {
		t.Run(c.name, func(t *testing.T) {
			pool := NewIdleFreePool(c.machines)
			b := &fakeBacklog{pool: pool, noOcc: c.noOcc}
			for i, app := range strings.Fields(c.apps) {
				b.tasks = append(b.tasks, Task{ID: int64(100 + i), App: app, Arrival: float64(i)})
			}
			cats := strings.Fields(c.cats)
			for i := range cats {
				if cats[i] == "<empty>" {
					cats[i] = EmptyCategory
				}
			}
			s := &scripted{q: c.q, cats: cats}
			var ps Passes
			err := ps.Drain(s, pool, b, c.now, c.hold)
			if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
				t.Fatalf("error %v, want %q", err, c.err)
			}
			if got := strings.Join(b.events, " "); got != c.events {
				t.Errorf("events\n got %q\nwant %q", got, c.events)
			}
			if got := b.apps(); got != c.left {
				t.Errorf("backlog left %q, want %q", got, c.left)
			}
			// The policy sees each member's batch position as its ID.
			for _, batch := range s.offered {
				for i, task := range batch {
					if task.ID != int64(i) {
						t.Fatalf("batch member %d offered with ID %d", i, task.ID)
					}
				}
			}
			if err := pool.Check(); err != nil && !c.noOcc {
				t.Fatal(err)
			}
		})
	}
}
