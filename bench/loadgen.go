package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// clients is the number of load-generating goroutines, each on its own
// keep-alive connection. It equals nproc on the reference host and is never
// raised: more clients than cores would measure the generator's own
// scheduling, not the daemon.
const clients = 2

// conn is one keep-alive connection: a client whose transport may hold
// exactly one connection to the daemon.
type conn struct {
	hc   *http.Client
	base string
	body bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

const requestIDHeader = "X-Request-Id"

// do sends one request and reads the whole response into c.body, so the
// connection is reusable. A transport error is reported as status 0.
func (c *conn) do(method, path, reqID string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// getJSON is a convenience for set-up and checks, not the timed paths.
func (c *conn) getJSON(path string, out any) error {
	code, err := c.do("GET", path, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, c.body.Bytes())
	}
	return json.Unmarshal(c.body.Bytes(), out)
}

// placement is the part of the daemon's placement record the generator
// reads back.
type placement struct {
	ID               string  `json:"id"`
	Status           string  `json:"status"`
	PredictedRuntime float64 `json:"predicted_runtime_s"`
	PredictedIOPS    float64 `json:"predicted_iops"`
}

type batchResponse struct {
	Results []struct {
		Placement *placement `json:"placement"`
		Rejected  bool       `json:"rejected"`
		Error     string     `json:"error"`
	} `json:"results"`
}

// tally is one client's record of a phase. Clients never share a tally, so
// the hot path takes no lock; they are merged after the phase.
type tally struct {
	submit, complete, read, scrape latencies
	lateness                       latencies // open loop: send − due when a connection was idle
	doneAt                         latencies // when each task's completion returned, since start
	start                          time.Time
	parts                          []*tally // merged tally only: the clients' own, each in time order
	attempted, failed              int
	completed                      int
	acked                          []string // placement IDs of acknowledged submits
	reqIDs                         []string // request ID of each acknowledged submit, positional with acked
	firstErr                       error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func mergeTallies(ts []*tally) *tally {
	m := &tally{parts: ts}
	for _, t := range ts {
		m.doneAt = append(m.doneAt, t.doneAt...)
		m.submit = append(m.submit, t.submit...)
		m.complete = append(m.complete, t.complete...)
		m.read = append(m.read, t.read...)
		m.scrape = append(m.scrape, t.scrape...)
		m.lateness = append(m.lateness, t.lateness...)
		m.attempted += t.attempted
		m.failed += t.failed
		m.completed += t.completed
		m.acked = append(m.acked, t.acked...)
		m.reqIDs = append(m.reqIDs, t.reqIDs...)
		if m.firstErr == nil {
			m.firstErr = t.firstErr
		}
	}
	return m
}

// caller issues the three task-level calls on one connection and records
// them in one tally. from is the instant a call's latency is counted from:
// the send time in a closed loop, the due time in an open loop.
type caller struct {
	c     *conn
	t     *tally
	apps  []string
	reqID func(i int) string // nil: let the daemon mint request IDs
	buf   []byte
}

// The three request bodies, appended to buf. Every rung of the traced pass
// sends the same bytes the load generator does.

func submitBody(buf []byte, app string) []byte {
	buf = append(buf, `{"app":"`...)
	buf = append(buf, app...)
	return append(buf, `"}`...)
}

func batchBody(buf []byte, apps []string) []byte {
	buf = append(buf, `{"tasks":[`...)
	for i, a := range apps {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = submitBody(buf, a)
	}
	return append(buf, `]}`...)
}

// completeBody reports the observed outcome of a finished task.
func completeBody(buf []byte, runtime, iops float64) []byte {
	buf = append(buf, `{"runtime_s":`...)
	buf = strconv.AppendFloat(buf, runtime, 'g', -1, 64)
	buf = append(buf, `,"iops":`...)
	buf = strconv.AppendFloat(buf, iops, 'g', -1, 64)
	return append(buf, '}')
}

// overShare is the share of durations beyond limit.
func overShare(l latencies, limit time.Duration) float64 {
	over := 0
	for _, d := range l {
		if d > limit {
			over++
		}
	}
	return float64(over) / float64(max(len(l), 1))
}

// submit posts one task. ok is false when the call failed (already
// counted); the placement may still be queued.
func (k *caller) submit(i int, tk task, from time.Time) (p placement, ok bool) {
	id := ""
	if k.reqID != nil {
		id = k.reqID(i)
	}
	k.t.attempted++
	k.buf = submitBody(k.buf[:0], k.apps[tk.app])
	code, err := k.c.do("POST", "/v1/tasks", id, k.buf)
	k.t.submit = append(k.t.submit, time.Since(from))
	if err != nil || code != http.StatusOK {
		k.t.fail(fmt.Errorf("submit %d: status %d: %v", i, code, err))
		return p, false
	}
	if err := json.Unmarshal(k.c.body.Bytes(), &p); err != nil || p.ID == "" {
		k.t.fail(fmt.Errorf("submit %d: bad body %q", i, k.c.body.Bytes()))
		return p, false
	}
	k.t.acked = append(k.t.acked, p.ID)
	k.t.reqIDs = append(k.t.reqIDs, id)
	return p, true
}

func (k *caller) get(id string, from time.Time) (p placement, ok bool) {
	k.t.attempted++
	code, err := k.c.do("GET", "/v1/placements/"+id, "", nil)
	k.t.read = append(k.t.read, time.Since(from))
	if err != nil || code != http.StatusOK {
		k.t.fail(fmt.Errorf("get %s: status %d: %v", id, code, err))
		return p, false
	}
	if err := json.Unmarshal(k.c.body.Bytes(), &p); err != nil {
		k.t.fail(fmt.Errorf("get %s: bad body", id))
		return p, false
	}
	return p, true
}

// complete reports the task finished, with the observed runtime the
// daemon's own forecast times the task's seeded noise.
func (k *caller) complete(p placement, tk task, from time.Time) {
	k.buf = completeBody(k.buf[:0], p.PredictedRuntime*tk.noise, p.PredictedIOPS)
	k.t.attempted++
	code, err := k.c.do("POST", "/v1/placements/"+p.ID+"/complete", "", k.buf)
	k.t.complete = append(k.t.complete, time.Since(from))
	if err != nil || code != http.StatusOK {
		k.t.fail(fmt.Errorf("complete %s: status %d: %v", p.ID, code, err))
		return
	}
	k.t.completed++
	k.t.doneAt = append(k.t.doneAt, time.Since(k.t.start))
}

// awaitPlaced polls a queued placement until the daemon has placed it. In
// the workloads as designed a task is placed by the time its turn comes;
// the bound only stops a broken daemon from hanging the run.
func (k *caller) awaitPlaced(p placement) (placement, bool) {
	for tries := 0; p.Status != "placed"; tries++ {
		if tries == 2000 {
			k.t.attempted++
			k.t.fail(fmt.Errorf("placement %s still %s after %d polls", p.ID, p.Status, tries))
			return p, false
		}
		time.Sleep(time.Millisecond)
		var ok bool
		if p, ok = k.get(p.ID, time.Now()); !ok {
			return p, false
		}
	}
	return p, true
}

// runClosedSingle drives the submit → (read) → complete cycle: client c
// takes tasks c, c+2, c+4, … and keeps exactly one in flight.
func runClosedSingle(base string, apps []string, tasks []task, reqID func(int) string) *tally {
	start := time.Now()
	ts := make([]*tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		ts[c] = &tally{start: start}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn(base)
			defer cn.close()
			k := &caller{c: cn, t: ts[c], apps: apps, reqID: reqID}
			for i := c; i < len(tasks); i += clients {
				tk := tasks[i]
				p, ok := k.submit(i, tk, time.Now())
				if !ok {
					continue
				}
				if tk.read || p.Status != "placed" {
					if p, ok = k.get(p.ID, time.Now()); !ok {
						continue
					}
				}
				if p, ok = k.awaitPlaced(p); ok {
					k.complete(p, tk, time.Now())
				}
			}
		}(c)
	}
	wg.Wait()
	return mergeTallies(ts)
}

// runClosedBatch is mixed-batch's load: each client keeps
// batchesOutstanding batches of batchSize in flight. One turn submits a new
// batch, then reads and completes every task of the client's oldest batch.
// Client 0 also scrapes /metrics and lists /v1/machines once a second on
// its own connection, never a third.
func runClosedBatch(base string, apps []string, tasks []task) *tally {
	start := time.Now()
	ts := make([]*tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		ts[c] = &tally{start: start}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn(base)
			defer cn.close()
			k := &caller{c: cn, t: ts[c], apps: apps}
			type inflight struct {
				ps []placement
				ts []task
			}
			var window []inflight
			// retire reads and completes the oldest batch. MIBS places the best
			// match among the queue head, not the oldest task, so now and then
			// a task is still queued at its turn: it rides along with the next
			// batch, or, when there is none, is waited for.
			retire := func() {
				old := window[0]
				window = window[1:]
				for j, p := range old.ps {
					p, ok := k.get(p.ID, time.Now())
					if !ok {
						continue
					}
					if p.Status != "placed" && len(window) > 0 {
						window[0].ps = append(window[0].ps, p)
						window[0].ts = append(window[0].ts, old.ts[j])
						continue
					}
					if p, ok = k.awaitPlaced(p); ok {
						k.complete(p, old.ts[j], time.Now())
					}
				}
			}
			nextScrape := time.Now().Add(time.Second)
			per := clients * batchSize
			for lo := c * batchSize; lo+batchSize <= len(tasks); lo += per {
				group := tasks[lo : lo+batchSize : lo+batchSize] // capped: retire may append to it
				if ps, ok := k.submitBatch(lo, group); ok {
					window = append(window, inflight{ps: ps, ts: group})
				}
				if len(window) > batchesOutstanding {
					retire()
				}
				if c == 0 && time.Now().After(nextScrape) {
					k.scrape()
					nextScrape = nextScrape.Add(time.Second)
				}
			}
			for len(window) > 0 {
				retire()
			}
		}(c)
	}
	wg.Wait()
	return mergeTallies(ts)
}

func (k *caller) submitBatch(lo int, group []task) ([]placement, bool) {
	names := make([]string, len(group))
	for j, tk := range group {
		names[j] = k.apps[tk.app]
	}
	k.buf = batchBody(k.buf[:0], names)
	k.t.attempted++
	from := time.Now()
	code, err := k.c.do("POST", "/v1/tasks:batch", "", k.buf)
	k.t.submit = append(k.t.submit, time.Since(from))
	if err != nil || code != http.StatusOK {
		k.t.fail(fmt.Errorf("batch at %d: status %d: %v", lo, code, err))
		return nil, false
	}
	var resp batchResponse
	if err := json.Unmarshal(k.c.body.Bytes(), &resp); err != nil || len(resp.Results) != len(group) {
		k.t.fail(fmt.Errorf("batch at %d: bad body", lo))
		return nil, false
	}
	ps := make([]placement, len(group))
	for j, r := range resp.Results {
		if r.Placement == nil {
			// A shed or failed task inside an accepted batch is a refused op.
			k.t.fail(fmt.Errorf("batch at %d task %d: rejected=%v %s", lo, j, r.Rejected, r.Error))
			return nil, false
		}
		ps[j] = *r.Placement
		k.t.acked = append(k.t.acked, r.Placement.ID)
		k.t.reqIDs = append(k.t.reqIDs, "")
	}
	return ps, true
}

// scrape is the operator's once-a-second look: Prometheus exposition and
// the machine list, timed together.
func (k *caller) scrape() {
	from := time.Now()
	for _, path := range []string{"/metrics?format=prometheus", "/v1/machines"} {
		k.t.attempted++
		if code, err := k.c.do("GET", path, "", nil); err != nil || code != http.StatusOK {
			k.t.fail(fmt.Errorf("GET %s: status %d: %v", path, code, err))
		}
	}
	k.t.scrape = append(k.t.scrape, time.Since(from))
}

// dueOp is one open-loop call waiting for its instant.
type dueOp struct {
	due     time.Time
	from    time.Time // complete: the instant latency is counted from
	kind    int       // 0 submit, 1 read, 2 complete
	i       int       // task index
	p       placement
	retries int
}

type dueHeap []dueOp

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(a, b int) bool { return h[a].due.Before(h[b].due) }
func (h dueHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(dueOp)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// openQueue is the open loop's shared schedule: submits at their seeded
// instants, and the reads and completes that acknowledgements make due.
type openQueue struct {
	mu      sync.Mutex
	start   time.Time
	tasks   []task
	next    int     // next scheduled submit
	pending dueHeap // reads and completes, by due time
	open    int     // tasks submitted whose last call has not returned
}

// earliestLocked peeks the call to make next: a follow-up (read or
// complete) that is already due, else whichever call falls due first. A
// generator that has fallen behind therefore finishes the tasks it has
// started before it starts more, as independent front-ends would: were
// overdue submits to go first, being 2 ms late would leave every completion
// waiting behind them, slots would fill and the daemon would answer 429 to
// a load it can carry.
func (q *openQueue) earliestLocked() (dueOp, bool) {
	var op dueOp
	have := false
	if len(q.pending) > 0 {
		op, have = q.pending[0], true
		if !op.due.After(time.Now()) {
			return op, true
		}
	}
	if q.next < len(q.tasks) {
		if d := q.start.Add(q.tasks[q.next].due); !have || d.Before(op.due) {
			op, have = dueOp{due: d, kind: 0, i: q.next}, true
		}
	}
	return op, have
}

// take blocks until the earliest call is due and claims it. ok is false
// once nothing is scheduled or in flight. idled reports that this worker
// was free and asleep when the call fell due, in which case now − due is
// the generator's own lateness rather than queueing for a connection.
func (q *openQueue) take() (op dueOp, idled, ok bool) {
	for {
		q.mu.Lock()
		op, have := q.earliestLocked()
		if !have {
			done := q.open == 0
			q.mu.Unlock()
			if done {
				return dueOp{}, false, false
			}
			// The other worker still owes a follow-up call.
			idled = true
			nanosleep(200 * time.Microsecond)
			continue
		}
		wait := time.Until(op.due)
		if wait <= 0 {
			if op.kind == 0 {
				q.next++
				q.open++
			} else {
				heap.Pop(&q.pending)
			}
			q.mu.Unlock()
			return op, idled, true
		}
		q.mu.Unlock()
		// Sleep at most a millisecond, then look again: an acknowledgement
		// arriving meanwhile may have made something due earlier.
		idled = true
		if wait > time.Millisecond {
			wait = time.Millisecond
		}
		nanosleep(wait)
	}
}

// nanosleep blocks the calling thread in the kernel. time.Sleep parks the
// goroutine on the runtime's poller, whose timeout has millisecond
// granularity when the process is otherwise idle: a 200 µs sleep returns a
// millisecond late, which an open-loop schedule at 2 000/s cannot afford.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early EINTR wake-up only means looking again sooner
}

func (q *openQueue) schedule(op dueOp) {
	q.mu.Lock()
	heap.Push(&q.pending, op)
	q.mu.Unlock()
}

func (q *openQueue) finish() {
	q.mu.Lock()
	q.open--
	q.mu.Unlock()
}

// runOpen offers tasks on their seeded schedule regardless of how fast the
// daemon answers. A due call takes whichever of the two connections frees
// first, and its latency runs from the instant it was due, so time spent
// waiting for a connection (or behind a stalled daemon) is counted, not
// silently dropped. A task's completion falls due completeAfter after its
// submit was acknowledged; for the tasks that read first, the read falls
// due halfway and the completion the other half after it.
func runOpen(base string, apps []string, tasks []task) *tally {
	start := time.Now()
	q := &openQueue{start: start.Add(5 * time.Millisecond), tasks: tasks}
	ts := make([]*tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		ts[c] = &tally{start: start}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn(base)
			defer cn.close()
			k := &caller{c: cn, t: ts[c], apps: apps}
			for {
				op, idled, ok := q.take()
				if !ok {
					return
				}
				if idled {
					k.t.lateness = append(k.t.lateness, time.Since(op.due))
				}
				tk := tasks[op.i]
				switch op.kind {
				case 0:
					p, ok := k.submit(op.i, tk, op.due)
					switch {
					case !ok:
						q.finish()
					case tk.read:
						q.schedule(dueOp{due: time.Now().Add(completeAfter / 2), kind: 1, i: op.i, p: p})
					default:
						due := time.Now().Add(completeAfter)
						q.schedule(dueOp{due: due, from: due, kind: 2, i: op.i, p: p})
					}
				case 1:
					if p, ok := k.get(op.p.ID, op.due); ok {
						due := time.Now().Add(completeAfter / 2)
						q.schedule(dueOp{due: due, from: due, kind: 2, i: op.i, p: p})
					} else {
						q.finish()
					}
				case 2:
					// A task the daemon queued at submit has no forecast
					// yet: look again, and if it is still queued come back
					// in a millisecond rather than hold the connection. The
					// completion stays timed from its original due instant.
					p := op.p
					if p.Status != "placed" {
						var ok bool
						if p, ok = k.get(p.ID, time.Now()); !ok {
							q.finish()
							continue
						}
						if p.Status != "placed" {
							op.p, op.retries = p, op.retries+1
							if op.retries == 2000 {
								k.t.attempted++
								k.t.fail(fmt.Errorf("placement %s still %s after %d polls", p.ID, p.Status, op.retries))
								q.finish()
								continue
							}
							q.schedule(dueOp{due: time.Now().Add(time.Millisecond), from: op.from, kind: 2, i: op.i, p: p, retries: op.retries})
							continue
						}
					}
					k.complete(p, tk, op.from)
					q.finish()
				}
			}
		}(c)
	}
	wg.Wait()
	return mergeTallies(ts)
}
