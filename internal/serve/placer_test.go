package serve

import (
	"errors"
	"testing"

	"tracon/internal/model"
	"tracon/internal/xen"
)

// newTestServer wires a Server over a shared trained library.
func newTestServer(t testing.TB, k model.Kind, cfg Config) *Server {
	t.Helper()
	s, err := New(testLibrary(t, k), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// subLibrary builds a library holding only the named applications, reusing
// the trained per-app models — a cheap way to get a census-changing swap.
func subLibrary(t *testing.T, lib *model.Library, apps ...string) *model.Library {
	t.Helper()
	sub := model.NewLibrary(lib.Kind)
	for _, a := range apps {
		m, err := lib.Model(a)
		if err != nil {
			t.Fatal(err)
		}
		f, err := lib.Features(a)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := lib.SoloRuntime(a)
		if err != nil {
			t.Fatal(err)
		}
		io, err := lib.SoloIOPS(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.AddTrained(m, f, xen.SoloProfile{Runtime: rt, IOPS: io}); err != nil {
			t.Fatal(err)
		}
	}
	return sub
}

func TestPlacerFillQueueAndPromote(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "mios"})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()

	var recs []*Placement
	for i := 0; i < 6; i++ {
		rec, err := p.SubmitKeyed(apps[i%len(apps)], "", "")
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	placed, queued := 0, 0
	for _, r := range recs {
		switch r.Status {
		case StatusPlaced:
			placed++
		case StatusQueued:
			queued++
		default:
			t.Fatalf("unexpected status %q", r.Status)
		}
	}
	if placed != 4 || queued != 2 {
		t.Fatalf("want 4 placed / 2 queued on 2 machines, got %d/%d", placed, queued)
	}
	if got := p.Snapshot().FreeSlots; got != 0 {
		t.Fatalf("free slots = %d, want 0", got)
	}
	if got := p.Snapshot().QueueDepth; got != 2 {
		t.Fatalf("queue depth = %d, want 2", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Completing one placement must promote a queued task into the slot.
	var placedID string
	for _, r := range recs {
		if r.Status == StatusPlaced {
			placedID = r.ID
			break
		}
	}
	done, err := p.Complete(placedID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusCompleted {
		t.Fatalf("completed record has status %q", done.Status)
	}
	if got := p.Snapshot().QueueDepth; got != 1 {
		t.Fatalf("queue depth after completion = %d, want 1", got)
	}
	if got := p.Snapshot().FreeSlots; got != 0 {
		t.Fatalf("free slots after promotion = %d, want 0", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacerNeighbourRecorded(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 1, Policy: "mios"})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()

	first, err := p.SubmitKeyed(apps[0], "", "")
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusPlaced || first.Neighbour != "" {
		t.Fatalf("first placement: %+v", first)
	}
	if first.PredictedRuntime <= 0 {
		t.Fatalf("no runtime forecast captured: %+v", first)
	}
	second, err := p.SubmitKeyed(apps[1], "", "")
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusPlaced || second.Neighbour != apps[0] {
		t.Fatalf("second placement should co-locate with %q: %+v", apps[0], second)
	}
	if second.Machine != first.Machine || second.Slot == first.Slot {
		t.Fatalf("second placement not on the sibling VM: %+v vs %+v", second, first)
	}
}

func TestPlacerTypedErrors(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 1})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()

	if _, err := p.SubmitKeyed("nosuch", "", ""); !errors.Is(err, model.ErrUnknownApp) {
		t.Fatalf("submit of unknown app: %v", err)
	}
	if _, err := p.Complete("t-999"); !errors.Is(err, ErrUnknownPlacement) {
		t.Fatalf("complete of unknown id: %v", err)
	}
	rec, err := p.SubmitKeyed(apps[0], "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Complete(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Complete(rec.ID); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("double complete: %v", err)
	}
	// A queued (not yet placed) task cannot be completed either.
	for i := 0; i < 2; i++ {
		if _, err := p.SubmitKeyed(apps[i], "", ""); err != nil {
			t.Fatal(err)
		}
	}
	q, err := p.SubmitKeyed(apps[2], "", "")
	if err != nil {
		t.Fatal(err)
	}
	if q.Status != StatusQueued {
		t.Fatalf("expected a queued task on a full machine, got %+v", q)
	}
	if _, err := p.Complete(q.ID); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("complete of queued task: %v", err)
	}
}

// A hot-swap that shrinks the census must fail queued tasks the new
// library cannot score, loudly, instead of wedging the queue head.
func TestPlacerFailsQueuedTasksUnknownAfterSwap(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	apps := lib.Apps()
	s, err := New(lib, Config{Machines: 1, Policy: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Placer()
	// Fill both slots with apps[0], then queue apps[1].
	var ids []string
	for i := 0; i < 2; i++ {
		rec, err := p.SubmitKeyed(apps[0], "", "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	victim, err := p.SubmitKeyed(apps[1], "", "")
	if err != nil {
		t.Fatal(err)
	}
	if victim.Status != StatusQueued {
		t.Fatalf("expected queued, got %+v", victim)
	}
	// Swap to a library that has never heard of apps[1].
	if err := s.ModelSet().Swap(subLibrary(t, lib, apps[0])); err != nil {
		t.Fatal(err)
	}
	// The next drain (triggered by a completion) evicts the victim.
	if _, err := p.Complete(ids[0]); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Get(victim.ID)
	if !ok {
		t.Fatal("victim record vanished")
	}
	if got.Status != StatusFailed || got.Error == "" {
		t.Fatalf("victim should have failed loudly: %+v", got)
	}
	if p.Snapshot().QueueDepth != 0 {
		t.Fatalf("queue depth = %d after eviction", p.Snapshot().QueueDepth)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A kill that requeues a placed task whose app a census-shrinking swap
// dropped must fail it loudly, not wedge the queue head: the backlog was
// checked against the new generation before the kill, so the requeue itself
// has to force the next check.
func TestPlacerFailsRequeuedTasksUnknownAfterSwap(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	apps := lib.Apps()
	s, err := New(lib, Config{Machines: 2, Policy: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Placer()
	// The victim takes machine 0's first VM, a known app the other three.
	victim, err := p.SubmitKeyed(apps[1], "", "")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		rec, err := p.SubmitKeyed(apps[0], "", "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if victim.Status != StatusPlaced || victim.Machine != 0 {
		t.Fatalf("victim not placed on machine 0: %+v", victim)
	}
	if err := s.ModelSet().Swap(subLibrary(t, lib, apps[0])); err != nil {
		t.Fatal(err)
	}
	// A hold under the new generation checks the (empty) backlog against it.
	if _, err := p.Complete(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Kill(victim.Machine); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(victim.ID)
	if got.Status != StatusFailed || got.Error == "" {
		t.Fatalf("requeued victim should have failed loudly: %+v", got)
	}
	// The head is not wedged: the known task requeued behind the victim
	// takes the VM the completion freed.
	if rec, _ := p.Get(ids[0]); rec.Status != StatusPlaced || rec.Machine != 1 {
		t.Fatalf("requeued known task not placed on machine 1: %+v", rec)
	}
	if p.Snapshot().QueueDepth != 0 {
		t.Fatalf("queue depth = %d", p.Snapshot().QueueDepth)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The finished ring must bound the placement map.
func TestPlacerCompletedRecordsBounded(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 1, CompletedCap: 4})
	p := s.Placer()
	app := testLibrary(t, model.NLM).Apps()[0]
	var first string
	for i := 0; i < 10; i++ {
		rec, err := p.SubmitKeyed(app, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rec.ID
		}
		if _, err := p.Complete(rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := p.Get(first); ok {
		t.Fatal("oldest finished record should have been evicted")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
