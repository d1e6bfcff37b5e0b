package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tracon/internal/model"
	"tracon/internal/obs"
)

// TestSubmitBatchOutcomes drives the placer's batch path directly: a batch
// mixing known and unknown applications gets positional outcomes, admitted
// tasks fill free slots then queue in request order, and tasks beyond the
// admission budget are shed individually without failing the batch.
func TestSubmitBatchOutcomes(t *testing.T) {
	// 2 machines = 4 slots; MaxQueue 3 so the bound bites within one batch.
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "mibs", QueueLen: 8, MaxQueue: 3})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()

	// 9 tasks against budget bound(3) + free(4) = 7, with an unknown app in
	// the middle: expect 4 placed, 3 queued, 1 unknown-app failure, 1 shed.
	batch := []string{apps[0], apps[1], "no-such-app", apps[2], apps[0], apps[1], apps[2], apps[0], apps[1]}
	outcomes, err := p.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(batch) {
		t.Fatalf("got %d outcomes for %d tasks", len(outcomes), len(batch))
	}
	if !errors.Is(outcomes[2].Err, model.ErrUnknownApp) {
		t.Fatalf("unknown app outcome: %+v", outcomes[2])
	}
	var placed, queued, shed int
	var queuedIDs []string
	for i, o := range outcomes {
		if i == 2 {
			continue
		}
		switch {
		case errors.Is(o.Err, ErrQueueFull):
			shed++
		case o.Err != nil:
			t.Fatalf("task %d: %v", i, o.Err)
		case o.Placement.Status == StatusPlaced:
			placed++
		case o.Placement.Status == StatusQueued:
			queued++
			queuedIDs = append(queuedIDs, o.Placement.ID)
		default:
			t.Fatalf("task %d in state %q", i, o.Placement.Status)
		}
	}
	if placed != 4 || queued != 3 || shed != 1 {
		t.Fatalf("placed/queued/shed = %d/%d/%d, want 4/3/1", placed, queued, shed)
	}
	// Only the tail of the batch is shed: the budget admits in order.
	if !errors.Is(outcomes[len(outcomes)-1].Err, ErrQueueFull) {
		t.Fatalf("expected the last task to be shed, got %+v", outcomes[len(outcomes)-1])
	}
	// The backlog preserves batch order for the admitted-but-queued tasks.
	snap := p.Snapshot()
	if snap.QueueDepth != 3 || snap.FreeSlots != 0 {
		t.Fatalf("snapshot after batch: %+v", snap)
	}
	gotQueue := p.QueueIDs()
	for i, id := range queuedIDs {
		if gotQueue[i] != id {
			t.Fatalf("queue order %v, want prefix %v", gotQueue, queuedIDs)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchDuplicateKeyInBatch: two tasks of one batch carrying the
// same idempotency key (two retries of one request parked in the same
// coalesce window) admit once — the second resolves to the first's record,
// consumes no budget, and a later retry still finds it.
func TestSubmitBatchDuplicateKeyInBatch(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "mios", MaxQueue: -1})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()
	outs, err := p.SubmitBatchKeyed(
		[]string{apps[0], apps[1], apps[2]}, nil, []string{"retry", "other", "retry"})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil || o.Placement == nil {
			t.Fatalf("task %d: %+v", i, o)
		}
	}
	if outs[2].Placement.ID != outs[0].Placement.ID || outs[2].Placement.App != apps[0] {
		t.Fatalf("in-batch duplicate got %+v, want the record of task 0 (%s)", outs[2].Placement, outs[0].Placement.ID)
	}
	if outs[1].Placement.ID == outs[0].Placement.ID {
		t.Fatal("distinct keys shared a record")
	}
	if got := len(p.ExportState().Placements); got != 2 {
		t.Fatalf("%d records admitted, want 2", got)
	}
	again, err := p.SubmitKeyed(apps[3], "", "retry")
	if err != nil || again.ID != outs[0].Placement.ID {
		t.Fatalf("later retry got %+v (%v), want %s", again, err, outs[0].Placement.ID)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAdmissionBound is the -race proof for the atomic admission
// fix: singleton and batch submitters hammer a full cluster concurrently
// while a sampler watches the backlog, and at no sampled instant does the
// queue depth exceed the scaled bound. (A submit admits and drains under
// one lock hold, so the free capacity that absorbs part of its budget is
// used before anyone can look.) With the old check-then-enqueue TOCTOU,
// concurrent submits raced past the bound.
func TestConcurrentAdmissionBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kill  int // machines to kill before the hammer (scales the bound)
		bound int
	}{
		{name: "full capacity", kill: 0, bound: 8},
		{name: "half capacity", kill: 1, bound: 4}, // 8 * 2/4
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "mios", MaxQueue: 8})
			p := s.Placer()
			apps := testLibrary(t, model.NLM).Apps()
			for i := 0; i < tc.kill; i++ {
				if _, err := p.Kill(i); err != nil {
					t.Fatal(err)
				}
			}
			// Saturate every schedulable slot so free-slot absorption is zero
			// and the instantaneous backlog bound applies directly.
			free := p.Snapshot().FreeSlots
			for i := 0; i < free; i++ {
				rec, err := p.SubmitKeyed(apps[i%len(apps)], "", "")
				if err != nil || rec.Status != StatusPlaced {
					t.Fatalf("fill %d: %+v, %v", i, rec, err)
				}
			}

			var admitted, rejected int64
			var mu sync.Mutex
			stop := make(chan struct{})
			var sampler sync.WaitGroup
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					snap := p.Snapshot()
					if snap.QueueDepth > tc.bound {
						t.Errorf("backlog %d exceeds bound %d", snap.QueueDepth, tc.bound)
						return
					}
				}
			}()

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(2)
				go func(g int) { // singleton submitters
					defer wg.Done()
					for i := 0; i < 8; i++ {
						_, err := p.SubmitKeyed(apps[(g+i)%len(apps)], "", "")
						mu.Lock()
						if errors.Is(err, ErrQueueFull) {
							rejected++
						} else if err == nil {
							admitted++
						}
						mu.Unlock()
						if err != nil && !errors.Is(err, ErrQueueFull) {
							t.Errorf("submit: %v", err)
						}
					}
				}(g)
				go func(g int) { // batch submitters
					defer wg.Done()
					for i := 0; i < 4; i++ {
						batch := []string{apps[g%len(apps)], apps[(g+1)%len(apps)], apps[(g+2)%len(apps)]}
						outcomes, err := p.SubmitBatch(batch)
						if err != nil {
							t.Errorf("batch: %v", err)
							return
						}
						mu.Lock()
						for _, o := range outcomes {
							if errors.Is(o.Err, ErrQueueFull) {
								rejected++
							} else if o.Err == nil {
								admitted++
							}
						}
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			sampler.Wait()

			// The hammer far oversubscribes the bound, so the backlog must
			// have filled exactly to it, and every admit+reject is accounted.
			if int(admitted) != tc.bound {
				t.Fatalf("admitted %d, want exactly the bound %d", admitted, tc.bound)
			}
			total := int64(4 * (8 + 4*3))
			if admitted+rejected != total {
				t.Fatalf("admitted %d + rejected %d != %d submitted", admitted, rejected, total)
			}
			if depth := p.Snapshot().QueueDepth; depth != tc.bound {
				t.Fatalf("final backlog %d, want %d", depth, tc.bound)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHTTPSubmitBatch exercises POST /v1/tasks:batch end to end: per-task
// outcomes, aggregate counts, the Retry-After hint when the bound sheds
// part of the batch, and the batch histograms appearing in /metrics.
func TestHTTPSubmitBatch(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, Policy: "mibs", QueueLen: 8, MaxQueue: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	apps := testLibrary(t, model.NLM).Apps()

	// 4 slots + bound 2 = budget 6; a batch of 8 sheds its last two tasks.
	var req BatchRequest
	for i := 0; i < 8; i++ {
		req.Tasks = append(req.Tasks, BatchTask{App: apps[i%len(apps)]})
	}
	body, _ := json.Marshal(req)
	httpResp, err := http.Post(ts.URL+"/v1/tasks:batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", httpResp.StatusCode)
	}
	var resp BatchResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Placed != 4 || resp.Queued != 2 || resp.Rejected != 2 || resp.Failed != 0 {
		t.Fatalf("counts placed/queued/rejected/failed = %d/%d/%d/%d, want 4/2/2/0",
			resp.Placed, resp.Queued, resp.Rejected, resp.Failed)
	}
	if len(resp.Results) != 8 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	for i, r := range resp.Results[:6] {
		if r.Placement == nil || r.Rejected {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	for i, r := range resp.Results[6:] {
		if !r.Rejected || r.Placement != nil {
			t.Fatalf("shed result %d: %+v", 6+i, r)
		}
	}
	if resp.RetryAfterS != 1 {
		t.Fatalf("RetryAfterS = %d, want 1 at full capacity", resp.RetryAfterS)
	}
	if got := httpResp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After header %q", got)
	}
	if got := s.admission.Rejected(); got != 2 {
		t.Fatalf("rejection counter %d, want 2", got)
	}

	// The batch histograms surface in /metrics with the pass recorded.
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	var points []obs.MetricPoint
	if err := json.NewDecoder(metricsResp.Body).Decode(&points); err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.MetricPoint{}
	for _, pt := range points {
		byName[pt.Name] = pt
	}
	size, ok := byName["serve.batch_size"]
	if !ok || size.Hist == nil || size.Hist.N != 1 || size.Hist.Sum != 8 {
		t.Fatalf("serve.batch_size: %+v", size)
	}
	lat, ok := byName["serve.batch_decision_seconds"]
	if !ok || lat.Hist == nil || lat.Hist.N != 1 {
		t.Fatalf("serve.batch_decision_seconds: %+v", lat)
	}
	if rej, ok := byName["serve.rejected"]; !ok || rej.Kind != "gauge" || rej.Value != 2 {
		t.Fatalf("serve.rejected: %+v", byName["serve.rejected"])
	}
}

// TestHTTPSubmitBatchValidation pins the 400 paths: empty batch, oversized
// batch, and a task with no application name.
func TestHTTPSubmitBatchValidation(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 1, BatchMax: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	apps := testLibrary(t, model.NLM).Apps()

	for _, tc := range []struct {
		name string
		body string
	}{
		{"empty batch", `{"tasks":[]}`},
		{"oversized batch", fmt.Sprintf(`{"tasks":[%s]}`, strings.Repeat(`{"app":"x"},`, 4)+`{"app":"x"}`)},
		{"missing app", fmt.Sprintf(`{"tasks":[{"app":%q},{}]}`, apps[0])},
		{"malformed json", `{"tasks":`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/tasks:batch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	// Validation failures must not count as submissions or rejections.
	if got := s.admission.Rejected(); got != 0 {
		t.Fatalf("rejection counter %d after validation failures", got)
	}
}

// TestCoalescerGroupsSubmissions checks the micro-batcher: concurrent
// singleton submissions inside one window flush as a single queue-aware
// scheduling pass, each waiter gets its own outcome, and the batch-size
// histogram accounts every task exactly once.
func TestCoalescerGroupsSubmissions(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{
		Machines: 3, Policy: "mibs", QueueLen: 8,
		CoalesceWindow: 20 * time.Millisecond, BatchMax: 16,
	})
	if s.coalescer == nil {
		t.Fatal("CoalesceWindow > 0 must wire a coalescer")
	}
	apps := testLibrary(t, model.NLM).Apps()

	const n = 6 // exactly the slot count: every task places
	var wg sync.WaitGroup
	recs := make([]*Placement, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], errs[i] = s.coalescer.SubmitKeyed(apps[i%len(apps)], "", "")
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if recs[i].Status != StatusPlaced {
			t.Fatalf("submit %d: status %q, want placed onto the empty cluster", i, recs[i].Status)
		}
	}
	size := s.reg.Histogram("serve.batch_size", obs.BatchSizeBuckets()).Snapshot()
	if size.Sum != n {
		t.Fatalf("batch-size histogram accounted %v tasks, want %d", size.Sum, n)
	}
	if size.N < 1 || size.N > n {
		t.Fatalf("batch-size histogram N = %d", size.N)
	}
	if w := s.reg.Gauge("serve.coalesce_waiting").Value(); w != 0 {
		t.Fatalf("coalesce_waiting gauge %v after all flushes", w)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescerFlushesEarlyAtMaxBatch checks the size trigger: a group
// reaching BatchMax flushes without waiting out the window.
func TestCoalescerFlushesEarlyAtMaxBatch(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{
		Machines: 2, Policy: "mibs", QueueLen: 8,
		CoalesceWindow: 10 * time.Second, // far beyond the test's patience
		BatchMax:       2,
	})
	apps := testLibrary(t, model.NLM).Apps()

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := s.coalescer.SubmitKeyed(apps[i%len(apps)], "", "")
			done <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("size-triggered flush did not happen before the window")
		}
	}
}

// TestSlowBodyDoesNotPinToken proves the in-flight fix: a client trickling
// its request body must not hold one of the admission tokens — the token
// covers only the placement decision, which starts after the body is read.
func TestSlowBodyDoesNotPinToken(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 1, MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	apps := testLibrary(t, model.NLM).Apps()

	// Open a submission whose body never finishes arriving: the handler
	// blocks inside the JSON decode.
	pr, pw := io.Pipe()
	slowDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/tasks", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		slowDone <- err
	}()
	if _, err := pw.Write([]byte(`{"app":`)); err != nil { // header sent, body stuck mid-JSON
		t.Fatal(err)
	}

	// While the slow request is wedged in its decode, the single token is
	// free and a well-behaved submission goes straight through.
	deadline := time.After(5 * time.Second)
	for len(s.admission.sem) != 0 {
		select {
		case <-deadline:
			t.Fatalf("in-flight token held during body decode: %d", len(s.admission.sem))
		default:
			time.Sleep(time.Millisecond)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/tasks", "application/json",
		strings.NewReader(fmt.Sprintf(`{"app":%q}`, apps[0])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast submission got %d while a slow body streams", resp.StatusCode)
	}

	// Unstick the slow request and let it finish (its truncated body is a
	// 400, not a hang).
	if _, err := pw.Write([]byte(fmt.Sprintf("%q}", apps[0]))); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestRetryAfterHint pins the backoff hint's rounding and cap boundaries.
func TestRetryAfterHint(t *testing.T) {
	for _, tc := range []struct {
		available, total, want int
	}{
		{6, 6, 1},    // full capacity: immediate retry
		{4, 6, 2},    // ceil(6/4)
		{2, 6, 3},    // exact division
		{1, 6, 6},    //
		{1, 30, 30},  // lands exactly on the cap
		{1, 31, 30},  // capped
		{0, 6, 30},   // zero capacity hints the cap, not infinity
		{-1, 6, 30},  // defensive: negative capacity behaves like zero
		{5, 100, 20}, // ceil(100/5)
	} {
		if got := retryAfter(tc.available, tc.total); got != tc.want {
			t.Errorf("retryAfter(%d, %d) = %d, want %d", tc.available, tc.total, got, tc.want)
		}
	}
}

// TestScaledBoundEdges pins the bound-resolution corners the admission
// sweep fixed: available==total returns the configured bound, a bound that
// would scale below one clamps to one, a disabled bound stays disabled at
// any positive capacity but still cuts off at zero capacity.
func TestScaledBoundEdges(t *testing.T) {
	for _, tc := range []struct {
		name             string
		maxQueue         int
		available, total int
		want             int
	}{
		{"full capacity keeps the bound", 24, 6, 6, 24},
		{"computed bound below one clamps to one", 4, 1, 6, 1},
		{"proportional scaling", 24, 2, 6, 8},
		{"disabled bound stays disabled", -1, 3, 6, -1},
		{"disabled bound at zero capacity cuts off", -1, 0, 6, 0},
		{"bounded at zero capacity cuts off", 24, 0, 6, 0},
		{"zero total with capacity is unbounded", 24, 2, 0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAdmission(1, tc.maxQueue)
			if got := a.ScaledBound(tc.available, tc.total); got != tc.want {
				t.Fatalf("ScaledBound(%d, %d) with maxQueue %d = %d, want %d",
					tc.available, tc.total, tc.maxQueue, got, tc.want)
			}
		})
	}
}

// TestSnapshotConsistency checks the single-lock snapshot against a scan
// of the inventory and the backlog in a quiescent placer.
func TestSnapshotConsistency(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 3, Policy: "mios", MaxQueue: -1})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()
	for i := 0; i < 8; i++ { // 6 place, 2 queue
		if _, err := p.SubmitKeyed(apps[i%len(apps)], "", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(2); err != nil {
		t.Fatal(err)
	}
	free, available := 0, 0
	for _, mv := range p.Machines() {
		if mv.State != MachineUp {
			continue
		}
		available += SlotsPerMachine
		for _, sv := range mv.Slots {
			if sv.State == "free" {
				free++
			}
		}
	}
	want := Snapshot{QueueDepth: len(p.QueueIDs()), FreeSlots: free, Available: available, Total: 3 * SlotsPerMachine}
	if snap := p.Snapshot(); snap != want {
		t.Fatalf("snapshot %+v disagrees with a scan %+v", snap, want)
	}
	if want.QueueDepth != 2 || want.FreeSlots != 0 || want.Available != 4 || want.Total != 6 {
		t.Fatalf("scan %+v, want 2 queued on a full cluster with 4 of 6 slots in service", want)
	}
}
