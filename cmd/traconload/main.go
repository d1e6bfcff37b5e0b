// Command traconload drives a running tracond with a synthetic task
// stream and reports client-side throughput and latency percentiles.
//
// Three modes:
//
//   - closed loop (default): -concurrency workers each keep exactly one
//     task in flight — submit, wait for placement, complete, repeat.
//   - batched closed loop (-batch N): workers submit N tasks per request
//     through POST /v1/tasks:batch, so the daemon runs one queue-aware
//     scheduling pass per group, then complete each admitted task.
//   - open loop (-rate N): task arrivals follow a Poisson process at N
//     tasks/minute regardless of how fast the daemon answers, the
//     arrival model of the paper's Sec. 4 workload mixes.
//
// Completions report an observed runtime derived from the daemon's own
// forecast times multiplicative noise; -drift inflates observed runtimes
// for the second half of the run to exercise the drift-triggered model
// hot-swap path end to end.
//
// -chaos turns the run into a failure drill: a background goroutine kills
// and revives random machines through the daemon's lifecycle API while the
// load runs. Workers ride out the churn — a completion answered 409 means
// the task's machine died and the daemon re-queued it, so the worker waits
// for the re-placement and completes it there. Every killed machine is
// revived before the run reports.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracon/internal/obs"
	"tracon/internal/serve"
	"tracon/internal/workload"
)

func main() {
	var (
		cfg     loadConfig
		target  string
		jsonOut bool
	)
	flag.StringVar(&target, "addr", "127.0.0.1:8080", "tracond address (host:port)")
	flag.IntVar(&cfg.tasks, "tasks", 200, "total tasks to submit")
	flag.IntVar(&cfg.concurrency, "concurrency", 8, "closed-loop workers (ignored with -rate)")
	flag.IntVar(&cfg.batch, "batch", 0, "submit tasks in groups of this size via /v1/tasks:batch (closed loop only; 0 = singleton)")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop Poisson arrival rate in tasks/minute (0 = closed loop)")
	flag.Int64Var(&cfg.seed, "seed", 1, "randomness seed (app choice, noise, arrivals)")
	flag.Float64Var(&cfg.drift, "drift", 0, "inflate observed runtimes by this factor after half the run (0 = off)")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Minute, "overall run timeout")
	flag.BoolVar(&jsonOut, "json", false, "emit the summary as JSON")
	flag.BoolVar(&cfg.chaos, "chaos", false, "kill and revive random machines during the run; tasks must survive via the daemon's re-queue")
	flag.DurationVar(&cfg.chaosEvery, "chaos-interval", 200*time.Millisecond, "interval between -chaos kill/revive actions")
	flag.BoolVar(&cfg.scrape, "scrape", false, "sample the daemon's Prometheus endpoint during the run and report the server-side submit latency next to the client's")
	flag.DurationVar(&cfg.scrapeEvery, "scrape-interval", 250*time.Millisecond, "-scrape sampling period")
	flag.BoolVar(&cfg.reconnect, "reconnect", false, "ride out a daemon restart: retry refused/5xx requests with backoff, resubmitting under stable idempotency keys")
	flag.DurationVar(&cfg.reconnectFor, "reconnect-window", 15*time.Second, "max time one request keeps retrying under -reconnect")
	flag.Parse()
	cfg.base = "http://" + target

	sum, err := run(cfg)
	if err != nil {
		log.Fatalf("traconload: %v", err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sum)
	} else {
		fmt.Print(sum.text())
	}
	if sum.Completed == 0 {
		log.Fatalf("traconload: zero tasks completed")
	}
}

const (
	// noise is the multiplicative sigma on observed runtimes.
	noise = 0.05
	// pollEvery is the longest wait between polls of a queued placement.
	pollEvery = 2 * time.Millisecond
)

// loadConfig holds the parsed flags: base is -addr as a URL.
type loadConfig struct {
	base         string
	tasks        int
	concurrency  int
	batch        int
	rate         float64
	seed         int64
	drift        float64
	timeout      time.Duration
	chaos        bool
	chaosEvery   time.Duration
	scrape       bool
	scrapeEvery  time.Duration
	reconnect    bool
	reconnectFor time.Duration
}

// summary is the run report (the -json shape).
type summary struct {
	Mode      string `json:"mode"`
	Tasks     int    `json:"tasks"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Queued    int64  `json:"queued"`
	Rejected  int64  `json:"rejected"`
	Failed    int64  `json:"failed"`
	// Batches counts /v1/tasks:batch requests in -batch mode.
	Batches       int64              `json:"batches,omitempty"`
	WallSeconds   float64            `json:"wall_seconds"`
	ThroughputPS  float64            `json:"throughput_per_s"`
	SubmitLatency obs.LatencySummary `json:"submit_latency_s"`
	E2ELatency    obs.LatencySummary `json:"e2e_latency_s"`
	FinalGen      uint64             `json:"final_generation"`
	// Chaos-mode counters: machines killed/revived by the drill, and tasks
	// that survived losing their machine mid-flight (completed after a
	// daemon-side re-queue and re-placement).
	ChaosKills   int64 `json:"chaos_kills,omitempty"`
	ChaosRevives int64 `json:"chaos_revives,omitempty"`
	Retried      int64 `json:"retried,omitempty"`
	// Reconnects counts request attempts retried under -reconnect;
	// DuplicateIDs counts idempotency violations the client observed (one
	// logical task answered with two placement IDs, or one placement ID
	// handed to two logical tasks). Zero after a daemon crash-restart is
	// the exactly-once property crash_smoke asserts.
	Reconnects   int64 `json:"reconnects,omitempty"`
	DuplicateIDs int64 `json:"duplicate_ids"`
	// Server is the daemon's own view of the run, sampled from its
	// Prometheus endpoint (-scrape): the submit route's server-side latency
	// over exactly the scraped window, for side-by-side comparison with
	// SubmitLatency. A client/server p99 gap is network + client overhead.
	Server *serverSummary `json:"server,omitempty"`
}

// serverSummary is the -scrape report: the delta between the first and
// last scrape of the submit route's cumulative latency histogram.
type serverSummary struct {
	Route    string             `json:"route"`
	Scrapes  int64              `json:"scrapes"`
	Requests int64              `json:"requests"`
	Latency  obs.LatencySummary `json:"latency_s"`
	Error    string             `json:"error,omitempty"`
}

func (s summary) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode        %s\n", s.Mode)
	fmt.Fprintf(&b, "submitted   %d (queued %d, rejected %d, failed %d)\n", s.Submitted, s.Queued, s.Rejected, s.Failed)
	if s.Batches > 0 {
		fmt.Fprintf(&b, "batches     %d\n", s.Batches)
	}
	fmt.Fprintf(&b, "completed   %d in %.2fs → %.1f tasks/s\n", s.Completed, s.WallSeconds, s.ThroughputPS)
	fmt.Fprintf(&b, "submit lat  p50 %.1fµs  p95 %.1fµs  p99 %.1fµs\n",
		s.SubmitLatency.P50*1e6, s.SubmitLatency.P95*1e6, s.SubmitLatency.P99*1e6)
	if s.Server != nil {
		if s.Server.Error != "" {
			fmt.Fprintf(&b, "server lat  scrape failed: %s\n", s.Server.Error)
		} else {
			fmt.Fprintf(&b, "server lat  p50 %.1fµs  p95 %.1fµs  p99 %.1fµs  (%s, %d reqs, %d scrapes)\n",
				s.Server.Latency.P50*1e6, s.Server.Latency.P95*1e6, s.Server.Latency.P99*1e6,
				s.Server.Route, s.Server.Requests, s.Server.Scrapes)
		}
	}
	fmt.Fprintf(&b, "e2e lat     p50 %.1fµs  p95 %.1fµs  p99 %.1fµs\n",
		s.E2ELatency.P50*1e6, s.E2ELatency.P95*1e6, s.E2ELatency.P99*1e6)
	fmt.Fprintf(&b, "model gen   %d\n", s.FinalGen)
	if s.ChaosKills > 0 {
		fmt.Fprintf(&b, "chaos       %d kills, %d revives, %d tasks survived re-placement\n",
			s.ChaosKills, s.ChaosRevives, s.Retried)
	}
	if s.Reconnects > 0 || s.DuplicateIDs > 0 {
		fmt.Fprintf(&b, "reconnect   %d retried attempts, %d duplicate ids\n",
			s.Reconnects, s.DuplicateIDs)
	}
	return b.String()
}

// loader is the shared state of one run.
type loader struct {
	cfg    loadConfig
	client *http.Client
	apps   []string

	submitLat *obs.Histogram
	e2eLat    *obs.Histogram

	submitted, completed, queued, rejected, failed atomic.Int64
	issued                                         atomic.Int64 // tasks handed to workers, for the drift midpoint
	batches                                        atomic.Int64
	kills, revives, retried                        atomic.Int64
	reconnects, duplicates                         atomic.Int64
	deadline                                       time.Time

	// Idempotency bookkeeping for -reconnect: keyPrefix+keySeq mint one
	// stable key per logical task; keyIDs (key → placement ID) and ids
	// (placement ID → key) cross-check that a key never yields two IDs and
	// an ID never serves two keys across retries and daemon restarts.
	keyPrefix string
	keySeq    atomic.Int64
	keyIDs    sync.Map
	ids       sync.Map
}

// nextKey mints a stable client-side idempotency key, or "" when
// -reconnect is off (the daemon then mints per-request IDs that never
// dedup). The prefix ties keys to this process so two loaders hammering
// one daemon cannot collide.
func (l *loader) nextKey() string {
	if !l.cfg.reconnect {
		return ""
	}
	return fmt.Sprintf("%s-%d", l.keyPrefix, l.keySeq.Add(1))
}

// noteID cross-checks the placement ID the daemon answered for a key.
// Either direction of disagreement — one key answered with two IDs, or
// one ID handed to two keys — is an exactly-once violation.
func (l *loader) noteID(key, id string) {
	if key == "" || id == "" {
		return
	}
	if prev, loaded := l.keyIDs.LoadOrStore(key, id); loaded && prev.(string) != id {
		l.duplicates.Add(1)
	}
	if prev, loaded := l.ids.LoadOrStore(id, key); loaded && prev.(string) != key {
		l.duplicates.Add(1)
	}
}

// post issues one POST, retrying refused connections and 5xx answers with
// exponential backoff while -reconnect is on and the window allows. The
// idempotency key rides the X-Request-Id header on every attempt, so a
// retry that crosses a daemon crash-restart dedups server-side instead of
// double-admitting the task.
func (l *loader) post(path, key string, body []byte) (*http.Response, error) {
	backoff := 50 * time.Millisecond
	giveUp := time.Now().Add(l.cfg.reconnectFor)
	for {
		req, err := http.NewRequest(http.MethodPost, l.cfg.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set(serve.RequestIDHeader, key)
		}
		resp, err := l.client.Do(req)
		if err == nil && resp.StatusCode < 500 {
			return resp, nil
		}
		if !l.cfg.reconnect || time.Now().After(giveUp) || time.Now().After(l.deadline) {
			return resp, err
		}
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		l.reconnects.Add(1)
		time.Sleep(backoff)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

func run(cfg loadConfig) (summary, error) {
	l := &loader{
		cfg: cfg,
		client: &http.Client{
			Timeout: 10 * time.Second,
			// Batched mode keeps concurrency*batch requests in flight against
			// one host; the default idle pool (2 per host) would churn
			// connections instead of reusing them.
			Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256},
		},
		submitLat: obs.NewHistogram(obs.DefaultLatencyBuckets()),
		e2eLat:    obs.NewHistogram(obs.DefaultLatencyBuckets()),
		deadline:  time.Now().Add(cfg.timeout),
		keyPrefix: fmt.Sprintf("ld-%d-%d", os.Getpid(), cfg.seed),
	}
	if err := l.resolveApps(); err != nil {
		return summary{}, err
	}
	if cfg.batch > 1 && cfg.rate > 0 {
		return summary{}, fmt.Errorf("-batch is a closed-loop mode; it cannot combine with -rate")
	}

	start := time.Now()
	var scr *scraper
	if cfg.scrape {
		scr = l.startScraper()
	}
	var chaosStop chan struct{}
	var chaosDone chan struct{}
	if cfg.chaos {
		chaosStop, chaosDone = make(chan struct{}), make(chan struct{})
		go l.chaosLoop(chaosStop, chaosDone)
	}
	switch {
	case cfg.rate > 0:
		l.openLoop()
	case cfg.batch > 1:
		l.batchLoop()
	default:
		l.closedLoop()
	}
	if cfg.chaos {
		close(chaosStop)
		<-chaosDone // the drill revives every machine it downed before exiting
	}
	wall := time.Since(start).Seconds()

	sum := summary{
		Mode:          "closed",
		Tasks:         cfg.tasks,
		Submitted:     l.submitted.Load(),
		Completed:     l.completed.Load(),
		Queued:        l.queued.Load(),
		Rejected:      l.rejected.Load(),
		Failed:        l.failed.Load(),
		WallSeconds:   wall,
		ThroughputPS:  float64(l.completed.Load()) / wall,
		SubmitLatency: l.submitLat.Latency(),
		E2ELatency:    l.e2eLat.Latency(),
	}
	if cfg.rate > 0 {
		sum.Mode = fmt.Sprintf("open (%.0f/min)", cfg.rate)
	} else if cfg.batch > 1 {
		sum.Mode = fmt.Sprintf("closed batch=%d", cfg.batch)
		sum.Batches = l.batches.Load()
	}
	if cfg.chaos {
		sum.Mode += " +chaos"
		sum.ChaosKills = l.kills.Load()
		sum.ChaosRevives = l.revives.Load()
		sum.Retried = l.retried.Load()
	}
	if cfg.reconnect {
		sum.Mode += " +reconnect"
		sum.Reconnects = l.reconnects.Load()
	}
	sum.DuplicateIDs = l.duplicates.Load()
	if scr != nil {
		sum.Server = scr.finish()
	}
	sum.FinalGen = l.finalGeneration()
	return sum, nil
}

// submitRoute is the route label whose server-side histogram -scrape
// compares against the client's submit latency.
func (l *loader) submitRoute() string {
	if l.cfg.batch > 1 {
		return "/v1/tasks:batch"
	}
	return "/v1/tasks"
}

// scraper samples the daemon's Prometheus endpoint for the duration of a
// run. Server-side latency comes from the delta between the first and the
// last scrape of the submit route's cumulative histogram — exactly the
// requests the run put through, even against a daemon that served earlier
// traffic.
type scraper struct {
	l          *loader
	route      string
	first      obs.PromHistogram
	last       obs.PromHistogram
	scrapes    int64
	err        error
	stop, done chan struct{}
}

// scrapeOnce fetches and parses one exposition sample of the submit route.
func (l *loader) scrapeOnce(route string) (obs.PromHistogram, error) {
	resp, err := l.client.Get(l.cfg.base + "/metrics?format=prometheus")
	if err != nil {
		return obs.PromHistogram{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return obs.PromHistogram{}, fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
	}
	return obs.ParsePrometheusHistogram(resp.Body,
		"serve_http_request_seconds", map[string]string{"route": route})
}

// startScraper takes the baseline sample and starts the sampling loop.
func (l *loader) startScraper() *scraper {
	s := &scraper{
		l: l, route: l.submitRoute(),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	s.first, s.err = l.scrapeOnce(s.route)
	s.last, s.scrapes = s.first, 1
	go s.loop()
	return s
}

func (s *scraper) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.l.cfg.scrapeEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if h, err := s.l.scrapeOnce(s.route); err == nil {
				s.last = h
				s.scrapes++
			}
		}
	}
}

// finish stops the loop, takes the closing sample and builds the report.
func (s *scraper) finish() *serverSummary {
	close(s.stop)
	<-s.done
	if h, err := s.l.scrapeOnce(s.route); err == nil {
		s.last = h
		s.scrapes++
	} else if s.err == nil {
		s.err = err
	}
	out := &serverSummary{Route: s.route, Scrapes: s.scrapes}
	if s.err != nil {
		out.Error = s.err.Error()
		return out
	}
	window := s.last.Sub(s.first).Snapshot()
	out.Requests = window.N
	out.Latency = window.Latency()
	return out
}

// machineCount asks the daemon for its inventory size.
func (l *loader) machineCount() int {
	resp, err := l.client.Get(l.cfg.base + "/v1/machines")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var mvs []serve.MachineView
	if err := json.NewDecoder(resp.Body).Decode(&mvs); err != nil {
		return 0
	}
	return len(mvs)
}

// machineOp fires one lifecycle verb; true on 200.
func (l *loader) machineOp(id int, op string) bool {
	resp, err := l.client.Post(fmt.Sprintf("%s/v1/machines/%d/%s", l.cfg.base, id, op), "application/json", nil)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// chaosLoop alternates machine kills and revivals on a seeded schedule:
// it kills random up machines until half the cluster is down, then starts
// reviving, and always leaves the cluster fully healed on exit. A
// single-machine cluster is left alone — there would be nowhere to
// re-place the victims.
func (l *loader) chaosLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	machines := l.machineCount()
	if machines <= 1 {
		return
	}
	rng := rand.New(rand.NewSource(l.cfg.seed + 31337))
	down := map[int]bool{}
	defer func() {
		for m := range down {
			if l.machineOp(m, "revive") {
				l.revives.Add(1)
			}
		}
	}()
	step := func() {
		if len(down)*2 >= machines {
			// Half the cluster is out: heal a random victim.
			victims := make([]int, 0, len(down))
			for m := range down {
				victims = append(victims, m)
			}
			sort.Ints(victims) // map order is random; keep the drill seeded
			m := victims[rng.Intn(len(victims))]
			if l.machineOp(m, "revive") {
				l.revives.Add(1)
				delete(down, m)
			}
			return
		}
		m := rng.Intn(machines)
		if down[m] {
			return
		}
		if l.machineOp(m, "kill") {
			l.kills.Add(1)
			down[m] = true
		}
	}
	step() // strike immediately — short bursts must still see churn
	tick := time.NewTicker(l.cfg.chaosEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			step()
		}
	}
}

// resolveApps asks the daemon what it serves; tasks draw from all of it.
func (l *loader) resolveApps() error {
	resp, err := l.client.Get(l.cfg.base + "/v1/models")
	if err != nil {
		return fmt.Errorf("querying daemon census: %w", err)
	}
	defer resp.Body.Close()
	var mr struct {
		Apps []string `json:"apps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return err
	}
	if len(mr.Apps) == 0 {
		return fmt.Errorf("daemon serves no applications")
	}
	l.apps = mr.Apps
	return nil
}

func (l *loader) finalGeneration() uint64 {
	resp, err := l.client.Get(l.cfg.base + "/v1/models")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var mr struct {
		Generation uint64 `json:"generation"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&mr)
	return mr.Generation
}

// closedLoop keeps cfg.concurrency tasks in flight until cfg.tasks have
// been issued.
func (l *loader) closedLoop() {
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for w := 0; w < l.cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.cfg.seed + int64(w)*7919))
			for {
				n := next.Add(1)
				if int(n) > l.cfg.tasks || time.Now().After(l.deadline) {
					return
				}
				l.runTask(rng)
			}
		}(w)
	}
	wg.Wait()
}

// openLoop fires tasks at their precomputed Poisson arrival offsets,
// regardless of daemon responsiveness.
func (l *loader) openLoop() {
	rng := rand.New(rand.NewSource(l.cfg.seed))
	// Draw enough arrivals to cover cfg.tasks at the configured rate.
	horizon := float64(l.cfg.tasks) / l.cfg.rate * 60 * 2
	arrivals := workload.Arrivals(rng, l.cfg.rate, horizon)
	for len(arrivals) < l.cfg.tasks {
		horizon *= 2
		arrivals = workload.Arrivals(rng, l.cfg.rate, horizon)
	}
	arrivals = arrivals[:l.cfg.tasks]

	start := time.Now()
	var wg sync.WaitGroup
	for i, at := range arrivals {
		if d := time.Duration(at * float64(time.Second)); d > time.Until(l.deadline) {
			break
		} else if sleep := start.Add(d).Sub(time.Now()); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.cfg.seed + int64(i)*104729))
			l.runTask(rng)
		}(i)
	}
	wg.Wait()
}

// batchLoop is the closed loop over /v1/tasks:batch: each worker submits
// cfg.batch tasks per request, so the daemon runs one queue-aware
// scheduling pass per group, then completes every admitted task before
// taking the next group.
func (l *loader) batchLoop() {
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for w := 0; w < l.cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.cfg.seed + int64(w)*7919))
			for {
				n := int(next.Add(int64(l.cfg.batch)))
				if n-l.cfg.batch >= l.cfg.tasks || time.Now().After(l.deadline) {
					return
				}
				size := l.cfg.batch
				if over := n - l.cfg.tasks; over > 0 {
					size -= over // last group takes the remainder
				}
				l.runBatch(rng, size)
			}
		}(w)
	}
	wg.Wait()
}

// runBatch submits one task group and completes every admitted task. The
// completions run concurrently — the group was placed as a unit, and
// serializing its completions would stall the daemon's backlog drain
// behind this client's poll interval.
func (l *loader) runBatch(rng *rand.Rand, size int) {
	req := serve.BatchRequest{Tasks: make([]serve.BatchTask, size)}
	for i := range req.Tasks {
		req.Tasks[i].App = l.apps[rng.Intn(len(l.apps))]
	}
	body, _ := json.Marshal(req)
	// One key covers the whole group; the daemon derives per-task dedup
	// keys as "<key>#<index>", so a resubmitted group maps back onto the
	// same admitted tasks position by position.
	batchKey := l.nextKey()
	t0 := time.Now()
	resp, err := l.post("/v1/tasks:batch", batchKey, body)
	l.submitLat.Observe(time.Since(t0).Seconds())
	if err != nil {
		l.failed.Add(int64(size))
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		l.rejected.Add(int64(size))
		return
	default:
		io.Copy(io.Discard, resp.Body)
		l.failed.Add(int64(size))
		return
	}
	var br serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		l.failed.Add(int64(size))
		return
	}
	l.batches.Add(1)
	var wg sync.WaitGroup
	for i, r := range br.Results {
		switch {
		case r.Rejected:
			l.rejected.Add(1)
		case r.Placement == nil:
			l.failed.Add(1)
		default:
			if batchKey != "" {
				l.noteID(fmt.Sprintf("%s#%d", batchKey, i), r.Placement.ID)
			}
			l.submitted.Add(1)
			wg.Add(1)
			go func(seed int64, rec *serve.Placement) {
				defer wg.Done()
				l.finishTask(rand.New(rand.NewSource(seed)), rec, t0)
			}(rng.Int63(), r.Placement)
		}
	}
	wg.Wait()
}

// runTask submits one task, waits for it to be placed, and completes it
// with a synthetic observation.
func (l *loader) runTask(rng *rand.Rand) {
	app := l.apps[rng.Intn(len(l.apps))]
	key := l.nextKey()
	t0 := time.Now()
	rec, status, err := l.submit(app, key)
	l.submitLat.Observe(time.Since(t0).Seconds())
	switch {
	case err != nil:
		l.failed.Add(1)
		return
	case status == http.StatusTooManyRequests:
		l.rejected.Add(1)
		return
	case status != http.StatusOK:
		l.failed.Add(1)
		return
	}
	l.noteID(key, rec.ID)
	l.submitted.Add(1)
	l.finishTask(rng, rec, t0)
}

// finishTask rides one admitted task to completion: wait out the queue if
// the daemon parked it, then report a synthetic observation. t0 anchors
// the end-to-end latency sample at the original submission.
func (l *loader) finishTask(rng *rand.Rand, rec *serve.Placement, t0 time.Time) {
	if rec.Status == serve.StatusQueued {
		l.queued.Add(1)
		if rec = l.awaitPlacement(rec.ID); rec == nil {
			l.failed.Add(1)
			return
		}
	}

	// Synthesize the observed outcome: the daemon's own forecast times
	// noise, inflated by the drift factor for the back half of the run.
	factor := 1 + rng.NormFloat64()*noise
	if factor < 0.1 {
		factor = 0.1
	}
	if l.cfg.drift > 0 && l.issued.Add(1) > int64(l.cfg.tasks/2) {
		factor *= 1 + l.cfg.drift
	}
	for {
		obsBody := serve.Observation{
			Runtime: rec.PredictedRuntime * factor,
			IOPS:    rec.PredictedIOPS / factor,
		}
		code, err := l.complete(rec.ID, obsBody)
		if err == nil && code == http.StatusOK {
			break
		}
		// 409 under chaos or reconnect: either the task's machine was killed
		// between placement and completion and the daemon re-queued it, or a
		// completion retry crossed a restart after its first attempt landed.
		if err == nil && code == http.StatusConflict && (l.cfg.chaos || l.cfg.reconnect) && time.Now().Before(l.deadline) {
			// A record already terminal means the earlier attempt committed
			// and only its response was lost: the work happened exactly once,
			// so count it completed rather than failed.
			if cur, cerr := l.getPlacement(rec.ID); cerr == nil && cur.Status == serve.StatusCompleted {
				break
			}
			if rec = l.awaitPlacement(rec.ID); rec != nil {
				l.retried.Add(1)
				continue
			}
		}
		l.failed.Add(1)
		return
	}
	l.completed.Add(1)
	l.e2eLat.Observe(time.Since(t0).Seconds())
}

func (l *loader) submit(app, key string) (*serve.Placement, int, error) {
	body, _ := json.Marshal(map[string]string{"app": app})
	resp, err := l.post("/v1/tasks", key, body)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, nil
	}
	var rec serve.Placement
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return nil, resp.StatusCode, err
	}
	return &rec, resp.StatusCode, nil
}

// awaitPlacement polls a queued task until it lands on a slot (or fails).
// The first polls come fast and back off to pollEvery: in a
// burst the placement usually lands within a few hundred microseconds of
// a slot freeing, and waiting a full interval for it would put the poll
// period on the critical path of every slot turnover.
func (l *loader) awaitPlacement(id string) *serve.Placement {
	sleep := pollEvery / 16
	for time.Now().Before(l.deadline) {
		rec, err := l.getPlacement(id)
		if err != nil {
			// A poll that fails mid-restart is survivable under -reconnect:
			// the record is journaled, so keep polling until the daemon
			// answers again.
			if !l.cfg.reconnect {
				return nil
			}
			l.reconnects.Add(1)
		} else {
			switch rec.Status {
			case serve.StatusPlaced:
				return rec
			case serve.StatusFailed, serve.StatusCompleted:
				return nil
			}
		}
		time.Sleep(sleep)
		if sleep *= 2; sleep > pollEvery {
			sleep = pollEvery
		}
	}
	return nil
}

// getPlacement fetches one placement record.
func (l *loader) getPlacement(id string) (*serve.Placement, error) {
	resp, err := l.client.Get(l.cfg.base + "/v1/placements/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("placement %s: HTTP %d", id, resp.StatusCode)
	}
	var rec serve.Placement
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

func (l *loader) complete(id string, o serve.Observation) (int, error) {
	body, _ := json.Marshal(o)
	resp, err := l.post("/v1/placements/"+id+"/complete", "", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
