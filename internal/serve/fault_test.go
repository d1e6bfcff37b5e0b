package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"tracon/internal/model"
)

// jsonBody marshals v for a raw http.NewRequest (when the test needs the
// response headers httpJSON discards).
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf)
}

// fillCluster submits tasks until every schedulable slot is busy, plus
// extra queued ones, and returns (placed, queued) records in submit order.
func fillCluster(t *testing.T, p *Placer, app string, placedN, queuedN int) (placed, queued []*Placement) {
	t.Helper()
	for i := 0; i < placedN+queuedN; i++ {
		rec, err := p.SubmitKeyed(app, "", "")
		if err != nil {
			t.Fatal(err)
		}
		switch rec.Status {
		case StatusPlaced:
			placed = append(placed, rec)
		case StatusQueued:
			queued = append(queued, rec)
		default:
			t.Fatalf("unexpected status %q", rec.Status)
		}
	}
	if len(placed) != placedN || len(queued) != queuedN {
		t.Fatalf("filled %d placed / %d queued, want %d/%d", len(placed), len(queued), placedN, queuedN)
	}
	return placed, queued
}

func TestMachineLifecycleTransitions(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "mios"})
	p := s.Placer()

	cases := []struct {
		name string
		op   func() error
		want error
	}{
		{"drain up", func() error { return p.Drain(0) }, nil},
		{"drain drained", func() error { return p.Drain(0) }, ErrBadTransition},
		{"undrain drained", func() error { return p.Undrain(0) }, nil},
		{"undrain up", func() error { return p.Undrain(0) }, ErrBadTransition},
		{"revive up", func() error { return p.Revive(0) }, ErrBadTransition},
		{"kill up", func() error { _, err := p.Kill(0); return err }, nil},
		{"kill down", func() error { _, err := p.Kill(0); return err }, ErrBadTransition},
		{"drain down", func() error { return p.Drain(0) }, ErrBadTransition},
		{"undrain down", func() error { return p.Undrain(0) }, ErrBadTransition},
		{"revive down", func() error { return p.Revive(0) }, nil},
		{"kill drained", func() error { p.mustDrain(t, 1); _, err := p.Kill(1); return err }, nil},
		{"drain unknown", func() error { return p.Drain(7) }, ErrUnknownMachine},
		{"kill unknown", func() error { _, err := p.Kill(-1); return err }, ErrUnknownMachine},
		{"revive unknown", func() error { return p.Revive(2) }, ErrUnknownMachine},
	}
	for _, tc := range cases {
		err := tc.op()
		if tc.want == nil && err != nil {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// mustDrain is a test helper for table entries needing setup.
func (p *Placer) mustDrain(t *testing.T, id int) {
	t.Helper()
	if err := p.Drain(id); err != nil {
		t.Fatal(err)
	}
}

func TestDrainCordonsMachine(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "mios"})
	p := s.Placer()
	app := testLibrary(t, model.NLM).Apps()[0]

	if err := p.Drain(1); err != nil {
		t.Fatal(err)
	}
	// Only machine 0's two slots are schedulable.
	placed, queued := fillCluster(t, p, app, 2, 2)
	for _, rec := range placed {
		if rec.Machine != 0 {
			t.Fatalf("task placed on cordoned machine: %+v", rec)
		}
	}
	if snap := p.Snapshot(); snap.Available != 2 || snap.Total != 4 {
		t.Fatalf("capacity %d/%d, want 2/4", snap.Available, snap.Total)
	}
	// Undrain promotes the backlog onto the restored machine.
	if err := p.Undrain(1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range queued {
		got, ok := p.Get(rec.ID)
		if !ok || got.Status != StatusPlaced || got.Machine != 1 {
			t.Fatalf("queued task after undrain: %+v", got)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKillRequeuesInFlightAtQueueFront(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "fifo"})
	p := s.Placer()
	app := testLibrary(t, model.NLM).Apps()[0]

	placed, queued := fillCluster(t, p, app, 4, 1)
	var victims []*Placement
	for _, rec := range placed {
		if rec.Machine == 0 {
			victims = append(victims, rec)
		}
	}
	if len(victims) != 2 {
		t.Fatalf("%d tasks on machine 0, want 2", len(victims))
	}

	requeued, err := p.Kill(0)
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 2 {
		t.Fatalf("kill requeued %d, want 2", requeued)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The victims are queued again — reset placement fields, one retry each.
	for _, v := range victims {
		got, _ := p.Get(v.ID)
		if got.Status != StatusQueued || got.Machine != -1 || got.Slot != -1 || got.Retries != 1 {
			t.Fatalf("victim after kill: %+v", got)
		}
	}
	// Completing a victim at its old placement is now a conflict.
	if _, err := p.Complete(victims[0].ID); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("completing a killed task: %v, want ErrNotPlaced", err)
	}

	// Freeing a slot on the surviving machine promotes the FIRST victim,
	// not the pre-kill queue tail: kills re-enter at the queue front in
	// slot order.
	var survivor *Placement
	for _, rec := range placed {
		if rec.Machine == 1 {
			survivor = rec
			break
		}
	}
	if _, err := p.Complete(survivor.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(victims[0].ID)
	if got.Status != StatusPlaced || got.Machine != 1 {
		t.Fatalf("first victim after a slot freed: %+v", got)
	}
	if tail, _ := p.Get(queued[0].ID); tail.Status != StatusQueued {
		t.Fatalf("queue tail overtook a killed task: %+v", tail)
	}

	// Revival restores capacity and absorbs the backlog.
	if err := p.Revive(0); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{victims[1].ID, queued[0].ID} {
		if got, _ := p.Get(id); got.Status != StatusPlaced {
			t.Fatalf("after revive: %+v", got)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionSheddingTable pins the scaled queue bound and the
// Retry-After hint to exact values across capacity levels.
func TestAdmissionSheddingTable(t *testing.T) {
	cases := []struct {
		name             string
		maxQueue         int
		depth            int
		available, total int
		full             bool
		after            int
	}{
		{"full capacity, below bound", 8, 7, 8, 8, false, 1},
		{"full capacity, at bound", 8, 8, 8, 8, true, 1},
		{"half capacity halves the bound", 8, 4, 4, 8, true, 2},
		{"half capacity, below scaled bound", 8, 3, 4, 8, false, 2},
		{"third capacity rounds the hint up", 9, 3, 3, 9, true, 3},
		{"one slot keeps a one-task queue", 8, 0, 1, 8, false, 8},
		{"one slot, one queued", 8, 1, 1, 8, true, 8},
		{"zero capacity rejects everything", 8, 0, 0, 8, true, retryAfterCap},
		{"disabled bound stays disabled", -1, 1000, 4, 8, false, 2},
		{"disabled bound, zero capacity", -1, 0, 0, 8, true, retryAfterCap},
		{"hint caps at 30", 64, 0, 1, 64, false, retryAfterCap},
	}
	for _, tc := range cases {
		a := NewAdmission(0, tc.maxQueue)
		bound := a.ScaledBound(tc.available, tc.total)
		if got := bound >= 0 && tc.depth >= bound; got != tc.full {
			t.Errorf("%s: ScaledBound %d sheds depth %d = %v, want %v", tc.name, bound, tc.depth, got, tc.full)
		}
		if got := retryAfter(tc.available, tc.total); got != tc.after {
			t.Errorf("%s: retryAfter = %d, want %d", tc.name, got, tc.after)
		}
		// The checks are pure: probing must never inflate the counter.
		if got := a.Rejected(); got != 0 {
			t.Errorf("%s: ScaledBound mutated the rejection counter to %d", tc.name, got)
		}
	}
}

// TestHTTPMachineOpsAndShedding drives the machine lifecycle over the HTTP
// surface and checks fault-aware admission: exact statuses, Retry-After
// values, and the requeue count in the kill response.
func TestHTTPMachineOpsAndShedding(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "fifo", MaxQueue: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	app := testLibrary(t, model.NLM).Apps()[0]

	var op machineOpResponse
	if code := httpJSON(t, "POST", ts.URL+"/v1/machines/1/drain", nil, &op); code != http.StatusOK || op.State != MachineDrained {
		t.Fatalf("drain: %d %+v", code, op)
	}
	if code := httpJSON(t, "POST", ts.URL+"/v1/machines/1/drain", nil, nil); code != http.StatusConflict {
		t.Fatalf("double drain: status %d, want 409", code)
	}
	if code := httpJSON(t, "POST", ts.URL+"/v1/machines/9/kill", nil, nil); code != http.StatusNotFound {
		t.Fatalf("kill unknown: status %d, want 404", code)
	}
	if code := httpJSON(t, "POST", ts.URL+"/v1/machines/x/kill", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("kill bad id: status %d, want 400", code)
	}
	if code := httpJSON(t, "POST", ts.URL+"/v1/machines/1/undrain", nil, &op); code != http.StatusOK || op.State != MachineUp {
		t.Fatalf("undrain: %d %+v", code, op)
	}

	// Fill both machines, then kill machine 0: the response reports its two
	// in-flight tasks returned to the queue.
	for i := 0; i < 4; i++ {
		if code := httpJSON(t, "POST", ts.URL+"/v1/tasks", submitRequest{App: app}, nil); code != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	if code := httpJSON(t, "POST", ts.URL+"/v1/machines/0/kill", nil, &op); code != http.StatusOK || op.Requeued != 2 {
		t.Fatalf("kill: %d %+v", code, op)
	}

	// Capacity is halved (2 of 4 slots): the queue bound drops from 4 to 2,
	// already holding the two requeued tasks — the next submit sheds with
	// Retry-After ⌈4/2⌉ = 2.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/tasks", jsonBody(t, submitRequest{App: app}))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit at reduced capacity: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}

	// Kill the last machine: zero capacity, everything sheds at the cap.
	if code := httpJSON(t, "POST", ts.URL+"/v1/machines/1/kill", nil, &op); code != http.StatusOK {
		t.Fatalf("kill 1: status %d", code)
	}
	req, _ = http.NewRequest("POST", ts.URL+"/v1/tasks", jsonBody(t, submitRequest{App: app}))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit with no machines: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want \"30\"", got)
	}

	// Revive both; the backlog lands and the daemon serves again.
	for _, m := range []string{"0", "1"} {
		if code := httpJSON(t, "POST", ts.URL+"/v1/machines/"+m+"/revive", nil, nil); code != http.StatusOK {
			t.Fatalf("revive %s: status %d", m, code)
		}
	}
	var mvs []MachineView
	if code := httpJSON(t, "GET", ts.URL+"/v1/machines", nil, &mvs); code != http.StatusOK {
		t.Fatalf("machines: status %d", code)
	}
	busy := 0
	for _, mv := range mvs {
		if mv.State != MachineUp {
			t.Fatalf("machine %d state %q after revive", mv.ID, mv.State)
		}
		for _, sl := range mv.Slots {
			if sl.State == "busy" {
				busy++
			}
		}
	}
	if busy != 4 {
		t.Fatalf("%d busy slots after revive, want 4 (backlog re-placed)", busy)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
