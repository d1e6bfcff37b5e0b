package serve

import (
	"sync"
	"time"

	"tracon/internal/obs"
)

// DefaultBatchMax caps one scheduling pass's batch when Config.BatchMax
// is zero: the coalescer flushes early at this size and the batch endpoint
// refuses larger requests.
const DefaultBatchMax = 256

// Coalescer micro-batches singleton submissions: a task arriving on
// POST /v1/tasks waits up to one coalesce window for companions, then the
// whole group goes through a single queue-aware scheduling pass
// (Placer.SubmitBatch) — the paper's batch schedulers score the entire
// backlog, so co-runner pairing decisions see every waiting task instead
// of a single head. A group also flushes early when it reaches maxBatch.
//
// Each waiter holds its own HTTP goroutine (and admission token); the
// flush runs on the goroutine that tripped it — no background worker, no
// work left behind on shutdown.
type Coalescer struct {
	placer   *Placer
	clock    obs.Clock
	window   time.Duration
	maxBatch int

	// sizeHist records tasks per flushed batch, decisionHist the scheduling
	// latency of one flush, waiting the submissions currently parked.
	sizeHist     *obs.Histogram
	decisionHist *obs.Histogram
	waiting      *obs.Gauge

	mu      sync.Mutex
	pending []coalesceEntry
	timer   obs.Timer // armed while a partial group waits out its window
}

// coalesceEntry is one parked submission and its reply channel.
type coalesceEntry struct {
	app    string
	reqID  string
	key    string // idempotency key ("" when the client supplied no ID)
	parked time.Time
	ch     chan coalesceResult
}

type coalesceResult struct {
	rec *Placement
	err error
}

// NewCoalescer builds the micro-batcher over a placer. window must be
// positive; maxBatch <= 0 takes DefaultBatchMax; a nil clock takes the
// wall clock.
func NewCoalescer(placer *Placer, clock obs.Clock, window time.Duration, maxBatch int, reg *obs.Registry) *Coalescer {
	if maxBatch <= 0 {
		maxBatch = DefaultBatchMax
	}
	if clock == nil {
		clock = obs.Wall
	}
	return &Coalescer{
		placer:       placer,
		clock:        clock,
		window:       window,
		maxBatch:     maxBatch,
		sizeHist:     reg.Histogram("serve.batch_size", obs.BatchSizeBuckets()),
		decisionHist: reg.Histogram("serve.batch_decision_seconds", obs.DefaultLatencyBuckets()),
		waiting:      reg.Gauge("serve.coalesce_waiting"),
	}
}

// SubmitKeyed parks one task until its group flushes and returns the
// task's own outcome. It blocks for at most the coalesce window plus one
// scheduling pass. reqID and the idempotency key are carried through the
// flushed batch to the placement record, so a keyed retry dedups even when
// it lands in a different micro-batch than the original.
func (c *Coalescer) SubmitKeyed(app, reqID, key string) (*Placement, error) {
	ch := make(chan coalesceResult, 1)
	c.mu.Lock()
	c.pending = append(c.pending, coalesceEntry{app: app, reqID: reqID, key: key, parked: c.clock.Now(), ch: ch})
	c.waiting.Set(float64(len(c.pending)))
	if len(c.pending) >= c.maxBatch {
		batch := c.takeLocked()
		c.mu.Unlock()
		c.flush(batch)
	} else {
		if c.timer == nil {
			c.timer = c.clock.AfterFunc(c.window, c.flushOnTimer)
		}
		c.mu.Unlock()
	}
	res := <-ch
	return res.rec, res.err
}

// Waiting reports how many submissions are currently parked; the
// deterministic simulation harness uses it to sequence waiters before
// advancing the clock.
func (c *Coalescer) Waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// takeLocked claims the pending group and disarms the window timer.
func (c *Coalescer) takeLocked() []coalesceEntry {
	batch := c.pending
	c.pending = nil
	c.waiting.Set(0)
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// flushOnTimer fires when a partial group's window expires.
func (c *Coalescer) flushOnTimer() {
	c.mu.Lock()
	batch := c.takeLocked()
	c.mu.Unlock()
	c.flush(batch)
}

// flush runs one queue-aware scheduling pass over the group and delivers
// each waiter its own outcome.
func (c *Coalescer) flush(batch []coalesceEntry) {
	if len(batch) == 0 {
		return
	}
	apps := make([]string, len(batch))
	reqIDs := make([]string, len(batch))
	keys := make([]string, len(batch))
	t0 := c.clock.Now()
	for i, e := range batch {
		apps[i] = e.app
		reqIDs[i] = e.reqID
		keys[i] = e.key
		// The parked interval ends when the flush trips, scheduling excluded.
		c.placer.tracer.coalesceWait(e.reqID, e.app, t0.Sub(e.parked))
	}
	outcomes, err := c.placer.SubmitBatchKeyed(apps, reqIDs, keys)
	c.decisionHist.Observe(c.clock.Since(t0).Seconds())
	c.sizeHist.Observe(float64(len(batch)))
	for i, e := range batch {
		res := coalesceResult{rec: outcomes[i].Placement, err: outcomes[i].Err}
		if res.err == nil && err != nil {
			// A global scheduling failure surfaces on every admitted task,
			// mirroring what a singleton Submit would have returned.
			res = coalesceResult{err: err}
		}
		e.ch <- res
	}
}
