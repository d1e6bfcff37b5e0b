package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"
)

// The traced pass measures from outside: the program under test is not
// modified, so a "span" here is one call the bench makes into a layer's
// public surface, and depth comes from replaying the same op stream once
// per rung of a call ladder, each time entering the stack one layer lower:
//
//	wire     http.Client → a child process whose handler does nothing
//	handler  Handler().ServeHTTP on a response recorder
//	placer   Placer.SubmitKeyed / SubmitBatchKeyed / Get / Complete
//	sched    the scheduling pass the placer would run for the op
//	predict  the predictor calls inside that pass (accumulated per op)
//	durable  the journal's filesystem calls inside that placer call
//
// A layer's self time is its rung's per-op median minus the rungs it calls.
// The wire rung stands beside the others rather than above them: it is what
// the same request costs when the server has nothing to do, so transport is
// measured across a real process boundary and not inside one process, where
// a loopback round trip is several times cheaper than the daemon's clients
// ever see.

// span is one timed call. Spans of one op share Op; Parent names the rung
// the call would have been made from.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Kind   string `json:"kind"` // submit, batch, get, complete, …
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	// Calls is how many calls the span sums (predict: one span per op, not
	// one per predictor call).
	Calls int `json:"calls,omitempty"`
}

var parentOf = map[string]string{
	"wire": "client", "handler": "wire", "placer": "handler",
	"sched": "placer", "predict": "sched", "durable": "placer",
	"sim": "client",
}

// recorder keeps spans in memory; they are written out when the run ends.
// Switched off it runs the call and records nothing, not even the time:
// that is the untraced side of the tracing-overhead comparison.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	// prime, when set, runs untimed before every timed call. The in-process
	// rungs use it to make one round trip to the wire stub first, so the
	// timed call starts the way the daemon's handler starts: in a process
	// the network has just woken, with caches the kernel and the peer have
	// been through, and not in a loop that has them all to itself.
	prime func()
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

func (r *recorder) do(name, kind string, op int, fn func()) {
	if r.prime != nil {
		r.prime()
	}
	if !r.on {
		fn()
		return
	}
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.spans = append(r.spans, span{Name: name, Parent: parentOf[name], Kind: kind, Op: op, Start: int64(start), End: int64(end)})
}

// add records an already-measured interval ending now.
func (r *recorder) add(name, kind string, op int, d time.Duration, calls int) {
	if !r.on {
		return
	}
	end := time.Since(r.t0)
	r.spans = append(r.spans, span{Name: name, Parent: parentOf[name], Kind: kind, Op: op, Start: int64(end - d), End: int64(end), Calls: calls})
}

// medianUS returns the median duration in µs of the spans with this name
// and kind, and how many there were.
func medianUS(spans []span, name, kind string) (float64, int) {
	var v []float64
	for _, s := range spans {
		if s.Name == name && s.Kind == kind {
			v = append(v, float64(s.End-s.Start)/1e3)
		}
	}
	return median(v), len(v)
}

// writeSpans dumps spans as NDJSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder is one op kind's per-rung medians in µs. A rung the workload does
// not have (durable without a journal) is 0.
type ladder struct {
	wire, handler, placer, sched, durable float64
}

// top is the ladder's account of one call: the wire plus everything from
// the handler down.
func (l ladder) top() float64 { return l.wire + l.handler }

// selfTimes splits a client-observed call over the layers: each layer's own
// time is its rung minus the rungs below it, and whatever the client saw
// beyond the ladder's top is unexplained. The five explained values sum to
// top, and all six to client, exactly.
func (l ladder) selfTimes(client float64) map[string]float64 {
	return map[string]float64{
		"transport":    l.wire,
		"serve.http":   l.handler - l.placer,
		"serve.placer": l.placer - l.sched - l.durable,
		"sched":        l.sched,
		"durable":      l.durable,
		"unexplained":  client - l.top(),
	}
}

// api is one rung's way of performing the workload's calls. Each
// implementation times, through its recorder, the part of the call that
// belongs to its rung.
type api struct {
	submit   func(op int, app, reqID string) (placement, error)
	batch    func(op int, apps []string) ([]placement, error)
	get      func(op int, id string) (placement, error)
	complete func(op int, id string, runtime, iops float64) error
}

// roundTrip performs one HTTP exchange and returns status and body.
type roundTrip func(method, path, reqID string, body []byte) (int, []byte, error)

// httpAPI speaks the daemon's JSON API through rt, which is either a real
// connection (client and wire rungs) or a direct ServeHTTP (handler rung).
func httpAPI(rec *recorder, rung string, rt roundTrip, errors *int) *api {
	call := func(kind string, op int, method, path, reqID string, body []byte, out any) error {
		var (
			code int
			resp []byte
			err  error
		)
		rec.do(rung, kind, op, func() { code, resp, err = rt(method, path, reqID, body) })
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			*errors++
			return fmt.Errorf("%s %s: status %d: %s", method, path, code, resp)
		}
		return json.Unmarshal(resp, out)
	}
	return &api{
		submit: func(op int, app, reqID string) (p placement, err error) {
			err = call("submit", op, "POST", "/v1/tasks", reqID, submitBody(nil, app), &p)
			return p, err
		},
		batch: func(op int, apps []string) ([]placement, error) {
			var resp batchResponse
			if err := call("batch", op, "POST", "/v1/tasks:batch", "", batchBody(nil, apps), &resp); err != nil {
				return nil, err
			}
			ps := make([]placement, len(resp.Results))
			for i, r := range resp.Results {
				if r.Placement == nil {
					return nil, fmt.Errorf("batch task %d refused: %s", i, r.Error)
				}
				ps[i] = *r.Placement
			}
			return ps, nil
		},
		get: func(op int, id string) (p placement, err error) {
			err = call("get", op, "GET", "/v1/placements/"+id, "", nil, &p)
			return p, err
		},
		complete: func(op int, id string, runtime, iops float64) error {
			var p placement
			return call("complete", op, "POST", "/v1/placements/"+id+"/complete", "", completeBody(nil, runtime, iops), &p)
		},
	}
}

// connRoundTrip adapts a keep-alive connection to roundTrip.
func connRoundTrip(c *conn) roundTrip {
	return func(method, path, reqID string, body []byte) (int, []byte, error) {
		code, err := c.do(method, path, reqID, body)
		return code, c.body.Bytes(), err
	}
}

// replay drives tasks through one rung, single-threaded, in the workload's
// call pattern: submit, for one task in four a read, then complete; or, for
// the batch workload, submit a batch of 8 and read and complete the oldest
// batch once the window is full. The window is both clients' worth, so the
// one thread holds the same standing backlog the two clients do.
func replay(w workload, a *api, apps []string, tasks []task, idPrefix string) error {
	finish := func(op int, p placement, tk task) error {
		if p.Status != "placed" {
			return fmt.Errorf("task %s is %s at its turn to complete", p.ID, p.Status)
		}
		return a.complete(op, p.ID, p.PredictedRuntime*tk.noise, p.PredictedIOPS)
	}
	if w.kind != closedBatch {
		for i, tk := range tasks {
			reqID := ""
			if w.reqID {
				reqID = idPrefix + strconv.Itoa(i)
			}
			p, err := a.submit(i, apps[tk.app], reqID)
			if err != nil {
				return err
			}
			if tk.read || p.Status != "placed" {
				if p, err = a.get(i, p.ID); err != nil {
					return err
				}
			}
			if err := finish(i, p, tk); err != nil {
				return err
			}
		}
		return nil
	}

	type inflight struct {
		ps []placement
		ts []task
		op int
	}
	var window []inflight
	// retire reads and completes the oldest batch. A task MIBS has passed
	// over is still queued at its turn; it rides along with the next batch.
	// After the last batch every slot has been freed, so nothing is left.
	retire := func() error {
		old := window[0]
		window = window[1:]
		var left inflight
		for j, p := range old.ps {
			p, err := a.get(old.op, p.ID)
			if err != nil {
				return err
			}
			if p.Status != "placed" {
				left.ps, left.ts = append(left.ps, p), append(left.ts, old.ts[j])
				continue
			}
			if err := finish(old.op, p, old.ts[j]); err != nil {
				return err
			}
		}
		if len(left.ps) == 0 {
			return nil
		}
		if len(window) > 0 {
			window[0].ps = append(window[0].ps, left.ps...)
			window[0].ts = append(window[0].ts, left.ts...)
			return nil
		}
		window = append(window, inflight{ps: left.ps, ts: left.ts, op: old.op})
		if len(left.ps) == len(old.ps) {
			return fmt.Errorf("%d tasks still queued on an otherwise idle cluster", len(left.ps))
		}
		return nil
	}
	names := make([]string, batchSize)
	for lo := 0; lo+batchSize <= len(tasks); lo += batchSize {
		group := tasks[lo : lo+batchSize : lo+batchSize] // capped: retire may append to it
		for j, tk := range group {
			names[j] = apps[tk.app]
		}
		ps, err := a.batch(lo, names)
		if err != nil {
			return err
		}
		window = append(window, inflight{ps: ps, ts: group, op: lo})
		if len(window) > clients*batchesOutstanding {
			if err := retire(); err != nil {
				return err
			}
		}
	}
	for len(window) > 0 {
		if err := retire(); err != nil {
			return err
		}
	}
	return nil
}

// submitKind is the span kind of the workload's submit call.
func (w workload) submitKind() string {
	if w.kind == closedBatch {
		return "batch"
	}
	return "submit"
}
