// Package serve is TRACON's online control plane: the long-running
// management server of Sec. 2 / Fig. 2, turned from a batch reproduction
// into a placement daemon. It loads a trained model library, owns a
// machine inventory, and answers streaming placement queries over a
// stdlib-only JSON HTTP API:
//
//	POST /v1/tasks                    submit a task for placement
//	POST /v1/tasks:batch              submit a batch; one queue-aware pass
//	GET  /v1/placements/{id}          placement lifecycle record
//	POST /v1/placements/{id}/complete free the slot, report the outcome
//	GET  /v1/machines                 inventory with per-VM occupancy
//	POST /v1/machines/{id}/drain      cordon: finish in-flight, accept no new
//	POST /v1/machines/{id}/undrain    return a cordoned machine to service
//	POST /v1/machines/{id}/kill       fail the machine; re-queue its tasks
//	POST /v1/machines/{id}/revive     return a dead machine to service
//	GET  /v1/models                   served family, generation, cache stats
//	POST /v1/models/swap              force a retrain-and-swap
//	GET  /healthz                     liveness + census
//	GET  /metrics                     obs.Registry snapshot (JSON)
//	/debug/pprof/*                    runtime profiling
//
// Three serving-specific mechanisms live underneath: a sharded bounded
// prediction cache so repeated co-location scoring skips regression
// evaluation (cache.go), admission control with in-flight and
// queue-depth backpressure (admission.go), and drift-triggered model
// hot-swap under an RWMutex so a retrained family replaces the served one
// without dropping requests (swap.go).
package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/monitor"
	"tracon/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Machines is the inventory size (two VMs each).
	Machines int
	// Policy is the scheduling policy: "mios" (default), "fifo", "mibs",
	// "mix". QueueLen is the batch size for the batch policies.
	Policy   string
	QueueLen int
	// MaxInflight bounds concurrent submissions (DefaultMaxInflight if 0).
	MaxInflight int
	// MaxQueue bounds the backlog; beyond it submissions get 429. Zero
	// defaults to 4 tasks per VM; negative disables the bound.
	MaxQueue int
	// DisableCache scores without memoization — the reference path the
	// prediction cache is validated against.
	DisableCache bool
	// CoalesceWindow, when positive, micro-batches singleton submissions:
	// a POST /v1/tasks waits up to this long for companions, then one
	// queue-aware scheduling pass places the whole group. Zero disables
	// coalescing (each submission schedules immediately).
	CoalesceWindow time.Duration
	// BatchMax caps one scheduling pass's batch: the coalescer flushes
	// early at this size and POST /v1/tasks:batch refuses larger requests
	// (DefaultBatchMax if 0).
	BatchMax int
	// Retrain, when set, enables drift-triggered and manual hot-swap.
	Retrain Retrainer
	// Drift tunes the detector; zero values take monitor defaults.
	Drift monitor.DriftConfig
	// SyncRetrain runs retrains on the completing request's goroutine
	// instead of asynchronously (deterministic tests and walkthroughs).
	SyncRetrain bool
	// CompletedCap bounds retained finished placement records.
	CompletedCap int
	// Logger receives the daemon's structured logs; nil discards them.
	Logger *slog.Logger
	// TraceCap bounds the serving-span ring exported on GET /v1/trace
	// (obs.DefaultTraceCap if 0; negative disables tracing entirely).
	TraceCap int
	// SLOWindow, SLOLatencyP99 and SLOErrorRate tune the rolling
	// objectives behind GET /v1/slo; zero values take the obs defaults,
	// negative objectives disable that check.
	SLOWindow     time.Duration
	SLOLatencyP99 float64
	SLOErrorRate  float64
	// Clock injects the daemon's time source: every timestamp, latency
	// measurement and timer (coalesce windows, SLO epochs, Retry-After
	// arithmetic) reads it. Nil takes the wall clock; the deterministic
	// simulation harness passes an obs.VirtualClock so the whole serving
	// stack advances only via Advance.
	Clock obs.Clock
	// Journal, when set, makes the placer crash-safe: New recovers the
	// placer from the journal's newest snapshot plus WAL replay (verifying
	// invariants before serving), and every subsequent lifecycle mutation
	// is appended at its commit point. The server takes ownership of
	// appends and snapshots; the caller still owns Close.
	Journal *durable.Manager
}

// Server is the tracond daemon core, constructed over a trained library.
type Server struct {
	cfg       Config
	models    *ModelSet
	placer    *Placer
	swapper   *SwapManager
	admission *Admission
	cache     *PredCache // nil when disabled
	coalescer *Coalescer // nil when CoalesceWindow is zero
	batchMax  int

	clock     obs.Clock
	reg       *obs.Registry
	met       serveMetrics
	latency   *obs.Histogram
	decision  *obs.Histogram
	batchSize *obs.Histogram
	batchLat  *obs.Histogram
	start     time.Time

	logger    *slog.Logger
	tracer    *serveTracer // nil when tracing is disabled
	journal   *journal     // nil without Config.Journal
	slo       *obs.SLOTracker
	sloStatus atomic.Value // string; last evaluated SLO status
	reqPrefix string
	reqSeq    atomic.Uint64
}

// New builds a Server serving placements from lib.
func New(lib *model.Library, cfg Config) (*Server, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("serve: config needs Machines > 0")
	}
	clock := cmp.Or(cfg.Clock, obs.Wall)
	policy := cmp.Or(cfg.Policy, "mios")
	var cache *PredCache
	if !cfg.DisableCache {
		cache = NewPredCache(0)
	}
	ms, err := NewModelSet(lib, policy, cfg.QueueLen, cache)
	if err != nil {
		return nil, err
	}
	maxQueue := cmp.Or(cfg.MaxQueue, 4*SlotsPerMachine*cfg.Machines)
	// The placer owns the admission bound: the scaled queue check and the
	// enqueue happen under one critical section, so concurrent submits can
	// never race the backlog past the bound.
	admission := NewAdmission(cfg.MaxInflight, maxQueue)
	placer, err := NewPlacer(ms, admission, cfg.Machines, cfg.CompletedCap)
	if err != nil {
		return nil, err
	}
	placer.clock = clock
	batchMax := cfg.BatchMax
	if batchMax <= 0 {
		batchMax = DefaultBatchMax
	}
	logger := cmp.Or(cfg.Logger, discardLogger())
	var tracer *serveTracer
	if cfg.TraceCap >= 0 {
		tracer = newServeTracer(policy, cfg.Machines, cfg.TraceCap, clock)
	}
	placer.tracer = tracer
	reg := obs.NewRegistry()
	s := &Server{
		cfg:       cfg,
		models:    ms,
		placer:    placer,
		swapper:   NewSwapManager(ms, cfg.Retrain, cfg.Drift, cfg.SyncRetrain),
		admission: admission,
		cache:     cache,
		batchMax:  batchMax,
		reg:       reg,
		met:       newServeMetrics(reg, cache != nil),
		latency:   reg.Histogram("serve.request_seconds", obs.DefaultLatencyBuckets()),
		decision:  reg.Histogram("serve.decision_seconds", obs.DefaultLatencyBuckets()),
		batchSize: reg.Histogram("serve.batch_size", obs.BatchSizeBuckets()),
		batchLat:  reg.Histogram("serve.batch_decision_seconds", obs.DefaultLatencyBuckets()),
		start:     clock.Now(),
		clock:     clock,
		logger:    logger,
		tracer:    tracer,
		slo: obs.NewSLOTracker(obs.SLOConfig{
			Window:     cfg.SLOWindow,
			LatencyP99: cfg.SLOLatencyP99,
			ErrorRate:  cfg.SLOErrorRate,
			Now:        clock.Now,
		}),
		reqPrefix: newReqPrefix(),
	}
	s.sloStatus.Store(obs.SLOStatusNoData)
	if cfg.Journal != nil {
		if err := s.recover(cfg.Journal); err != nil {
			return nil, err
		}
	}
	if cfg.CoalesceWindow > 0 {
		s.coalescer = NewCoalescer(placer, clock, cfg.CoalesceWindow, batchMax, reg)
	}
	return s, nil
}

// ModelSet exposes the hot-swap surface (tests, tracond's admin paths).
func (s *Server) ModelSet() *ModelSet { return s.models }

// Placer exposes the inventory (tests).
func (s *Server) Placer() *Placer { return s.placer }

// Swapper exposes the drift loop (tests, tracond).
func (s *Server) Swapper() *SwapManager { return s.swapper }

// Admission exposes the backpressure gate (tests, the DST harness's
// bound checks).
func (s *Server) Admission() *Admission { return s.admission }

// Coalescer exposes the micro-batcher; nil when CoalesceWindow is zero.
func (s *Server) Coalescer() *Coalescer { return s.coalescer }

// Registry exposes the metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// CheckInvariants delegates to the placer.
func (s *Server) CheckInvariants() error { return s.placer.CheckInvariants() }

// Drain waits for background work (async retrains) to finish; call after
// the HTTP listener has shut down.
func (s *Server) Drain() { s.swapper.Wait() }

// Handler builds the daemon's HTTP surface. Every route runs inside
// instrument (request IDs, per-route metrics, access log, SLO feed); the
// route label is the path pattern, so per-route series stay low-cardinality
// no matter how many placement IDs pass through.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(method, route string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+route, s.instrument(route, h))
	}
	handle("POST", "/v1/tasks", s.handleSubmit)
	handle("POST", "/v1/tasks:batch", s.handleSubmitBatch)
	handle("GET", "/v1/placements/{id}", s.handleGetPlacement)
	handle("POST", "/v1/placements/{id}/complete", s.handleComplete)
	handle("GET", "/v1/machines", s.handleMachines)
	handle("POST", "/v1/machines/{id}/drain", s.handleMachineOp)
	handle("POST", "/v1/machines/{id}/undrain", s.handleMachineOp)
	handle("POST", "/v1/machines/{id}/kill", s.handleMachineOp)
	handle("POST", "/v1/machines/{id}/revive", s.handleMachineOp)
	handle("GET", "/v1/models", s.handleModels)
	handle("POST", "/v1/models/swap", s.handleSwap)
	handle("GET", "/v1/trace", s.handleTrace)
	handle("GET", "/v1/slo", s.handleSLO)
	handle("GET", "/healthz", s.handleHealthz)
	handle("GET", "/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// submitRequest is the POST /v1/tasks body.
type submitRequest struct {
	App string `json:"app"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Decode the body BEFORE claiming an in-flight token: a slow client
	// streaming its request must not pin one of the admission slots —
	// admission covers only the placement decision itself.
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if req.App == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing \"app\""})
		return
	}
	reqID := RequestIDFrom(r.Context())
	// A client-supplied request ID doubles as the idempotency key: a retry
	// carrying the same ID — including across a daemon crash and restart —
	// returns the original placement instead of admitting a duplicate.
	// Server-minted IDs never dedup (the client did not promise anything).
	key := r.Header.Get(RequestIDHeader)
	if !s.admission.TryAcquire() {
		s.tracer.reject(reqID, req.App, "too many in-flight submissions")
		s.reject(w, 1, 1, "too many in-flight submissions")
		return
	}
	defer s.admission.Release()
	t0 := s.clock.Now()
	var (
		rec *Placement
		err error
	)
	if s.coalescer != nil {
		rec, err = s.coalescer.SubmitKeyed(req.App, reqID, key)
	} else {
		rec, err = s.placer.SubmitKeyed(req.App, reqID, key)
	}
	s.decision.Observe(s.clock.Since(t0).Seconds())
	if errors.Is(err, ErrQueueFull) {
		// The queue bound scales with schedulable capacity: a degraded
		// cluster sheds load early, and the Retry-After hint stretches as
		// capacity shrinks so clients back off harder the worse things are.
		snap := s.placer.Snapshot()
		reason := "placement queue is full"
		if snap.Available == 0 {
			reason = "no machines in service"
		}
		s.reject(w, retryAfter(snap.Available, snap.Total), 1, reason)
		return
	}
	if err != nil {
		s.placementError(w, err)
		return
	}
	s.met.submitted.Inc()
	if rec.Status == StatusPlaced {
		s.met.placed.Inc()
	} else {
		s.met.queued.Inc()
	}
	s.observeGauges()
	writeJSON(w, http.StatusOK, rec)
}

// BatchRequest is the POST /v1/tasks:batch body.
type BatchRequest struct {
	Tasks []BatchTask `json:"tasks"`
}

// BatchTask is one submission inside a batch.
type BatchTask struct {
	App string `json:"app"`
}

// BatchTaskResult is one task's outcome, positional with the request.
type BatchTaskResult struct {
	// Placement is set when the task was admitted (placed or queued).
	Placement *Placement `json:"placement,omitempty"`
	// Rejected marks a task shed by the admission bound.
	Rejected bool `json:"rejected,omitempty"`
	// Error carries a per-task failure (unknown application, queue full).
	Error string `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/tasks:batch response: per-task outcomes
// plus aggregate counts. The HTTP status is 200 whenever the batch itself
// was well-formed — individual tasks may still be rejected or fail, and
// RetryAfterS carries the backoff hint when any were shed.
type BatchResponse struct {
	Results     []BatchTaskResult `json:"results"`
	Placed      int               `json:"placed"`
	Queued      int               `json:"queued"`
	Rejected    int               `json:"rejected"`
	Failed      int               `json:"failed"`
	RetryAfterS int               `json:"retry_after_s,omitempty"`
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if len(req.Tasks) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty \"tasks\""})
		return
	}
	if len(req.Tasks) > s.batchMax {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("batch of %d exceeds the %d-task limit", len(req.Tasks), s.batchMax)})
		return
	}
	apps := make([]string, len(req.Tasks))
	for i, task := range req.Tasks {
		if task.App == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("missing \"app\" in task %d", i)})
			return
		}
		apps[i] = task.App
	}
	// One batch claims one in-flight token: it is one scheduling decision.
	reqID := RequestIDFrom(r.Context())
	if !s.admission.TryAcquire() {
		for _, app := range apps {
			s.tracer.reject(reqID, app, "too many in-flight submissions")
		}
		s.reject(w, 1, len(apps), "too many in-flight submissions")
		return
	}
	defer s.admission.Release()

	// Every task in one HTTP batch shares the request's ID: spans and
	// records for the whole group join back to one submission. When the
	// client supplied that ID, each task additionally gets a positional
	// idempotency key derived from it ("<id>#<i>") — the key is an index
	// entry only and never lands on the record's ReqID.
	reqIDs := make([]string, len(apps))
	var keys []string
	if clientID := r.Header.Get(RequestIDHeader); clientID != "" {
		keys = make([]string, len(apps))
		for i := range keys {
			keys[i] = fmt.Sprintf("%s#%d", clientID, i)
		}
	}
	for i := range reqIDs {
		reqIDs[i] = reqID
	}
	t0 := s.clock.Now()
	outcomes, err := s.placer.SubmitBatchKeyed(apps, reqIDs, keys)
	elapsed := s.clock.Since(t0).Seconds()
	s.decision.Observe(elapsed)
	s.batchLat.Observe(elapsed)
	s.batchSize.Observe(float64(len(apps)))
	if err != nil {
		s.placementError(w, err)
		return
	}

	resp := BatchResponse{Results: make([]BatchTaskResult, len(outcomes))}
	for i, o := range outcomes {
		switch {
		case errors.Is(o.Err, ErrQueueFull):
			resp.Results[i] = BatchTaskResult{Rejected: true, Error: o.Err.Error()}
			resp.Rejected++
		case o.Err != nil:
			resp.Results[i] = BatchTaskResult{Error: o.Err.Error()}
			resp.Failed++
			if errors.Is(o.Err, model.ErrUnknownApp) {
				s.met.unknownApp.Inc()
			}
		default:
			resp.Results[i] = BatchTaskResult{Placement: o.Placement}
			s.met.submitted.Inc()
			if o.Placement.Status == StatusPlaced {
				resp.Placed++
				s.met.placed.Inc()
			} else {
				resp.Queued++
				s.met.queued.Inc()
			}
		}
	}
	s.met.batches.Inc()
	if resp.Rejected > 0 {
		snap := s.placer.Snapshot()
		resp.RetryAfterS = retryAfter(snap.Available, snap.Total)
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfterS))
		s.admission.CountRejections(resp.Rejected)
	}
	s.observeGauges()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetPlacement(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.placer.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown placement"})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var obs Observation
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&obs); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
			return
		}
	}
	rec, err := s.placer.Complete(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownPlacement):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrNotPlaced):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	case err != nil:
		// The completion itself landed; the post-completion drain failed.
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.met.completed.Inc()
	if obs.Runtime > 0 {
		s.swapper.ObserveCompletion(rec.App, rec.bg, rec.PredictedRuntime, obs)
	}
	s.observeGauges()
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleMachines(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.placer.Machines())
}

// machineOpResponse is the body of every POST /v1/machines/{id}/* verb.
type machineOpResponse struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	// Requeued counts in-flight tasks sent back to the queue (kill only).
	Requeued int `json:"requeued,omitempty"`
}

func (s *Server) handleMachineOp(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad machine id %q", r.PathValue("id"))})
		return
	}
	op := path.Base(r.URL.Path)
	resp := machineOpResponse{ID: id}
	switch op {
	case "drain":
		err = s.placer.Drain(id)
		resp.State = MachineDrained
	case "undrain":
		err = s.placer.Undrain(id)
		resp.State = MachineUp
	case "kill":
		resp.Requeued, err = s.placer.Kill(id)
		resp.State = MachineDown
	case "revive":
		err = s.placer.Revive(id)
		resp.State = MachineUp
	}
	switch {
	case errors.Is(err, ErrUnknownMachine):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrBadTransition):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.reg.Counter("serve.machine_" + op).Inc()
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "machine lifecycle op",
		slog.String("req_id", RequestIDFrom(r.Context())),
		slog.String("op", op),
		slog.Int("machine", id),
		slog.Int("requeued", resp.Requeued),
	)
	s.observeGauges()
	writeJSON(w, http.StatusOK, resp)
}

// modelsResponse is the GET /v1/models body.
type modelsResponse struct {
	Kind       string      `json:"kind"`
	Generation uint64      `json:"generation"`
	Swaps      uint64      `json:"swaps"`
	DriftFires uint64      `json:"drift_fires"`
	Apps       []string    `json:"apps"`
	Cache      *CacheStats `json:"cache,omitempty"`
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	view := s.models.View()
	resp := modelsResponse{
		Kind:       view.Lib.Kind.String(),
		Generation: view.Gen,
		Swaps:      s.models.Swaps(),
		DriftFires: s.swapper.DriftFires(),
		Apps:       view.Lib.Apps(),
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if err := s.swapper.TriggerSwap(); err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "model swap",
		slog.String("req_id", RequestIDFrom(r.Context())),
		slog.Uint64("generation", s.models.Generation()),
	)
	writeJSON(w, http.StatusOK, map[string]uint64{"generation": s.models.Generation()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	view := s.models.View()
	snap := s.placer.Snapshot()
	// Liveness folds in the SLO verdict: the process answers 200 either
	// way (it is alive), but the body says "degraded" while the rolling
	// window is burning latency or error budget.
	rep := s.sloReport()
	status := "ok"
	if rep.Status == obs.SLOStatusDegraded {
		status = "degraded"
	}
	body := map[string]any{
		"status":      status,
		"kind":        view.Lib.Kind.String(),
		"generation":  view.Gen,
		"apps":        view.Lib.Apps(),
		"machines":    len(s.placer.machines),
		"free_slots":  snap.FreeSlots,
		"up_machines": snap.Available / SlotsPerMachine,
		"queue_depth": snap.QueueDepth,
		"uptime_s":    s.clock.Since(s.start).Seconds(),
		"latency":     s.latency.Latency(),
		"slo": map[string]any{
			"status":            rep.Status,
			"p99_s":             rep.Latency.P99,
			"error_rate":        rep.ErrorRate,
			"error_budget_left": rep.ErrorBudgetLeft,
		},
	}
	if s.journal != nil {
		durableErr := ""
		if err := s.journal.Err(); err != nil {
			durableErr = err.Error()
			body["status"] = "degraded"
		}
		body["durable"] = map[string]any{
			"last_seq": s.journal.lastSeq(),
			"fsync":    s.journal.mgr.Fsync().String(),
			"error":    durableErr,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics content-negotiates the registry snapshot: the JSON form
// is the default (and what the repo's own tooling reads); Prometheus text
// exposition is selected by ?format=prometheus or an Accept header asking
// for text/plain, so a stock Prometheus scraper works with zero flags.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.observeGauges()
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain") {
		format = "prometheus"
	}
	switch format {
	case "", "json":
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	case "prometheus":
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		_ = obs.WritePrometheus(w, s.reg.Snapshot())
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("unknown metrics format %q (want json or prometheus)", format)})
	}
}

// serveMetrics is every counter and gauge the request path touches,
// resolved once in New: a request never takes the registry's name-map
// mutex. The four cache gauges stay nil when the cache is disabled.
type serveMetrics struct {
	submitted, placed, queued, completed, unknownApp, batches, httpRequests *obs.Counter

	queueDepth, freeSlots, available, total, generation, swaps, driftFires, retrainErrors, rejected *obs.Gauge
	cacheHits, cacheMisses, cacheEvictions, cacheEntries                                            *obs.Gauge
}

func newServeMetrics(reg *obs.Registry, cache bool) serveMetrics {
	m := serveMetrics{
		submitted:     reg.Counter("serve.tasks_submitted"),
		placed:        reg.Counter("serve.tasks_placed"),
		queued:        reg.Counter("serve.tasks_queued"),
		completed:     reg.Counter("serve.tasks_completed"),
		unknownApp:    reg.Counter("serve.tasks_rejected_unknown_app"),
		batches:       reg.Counter("serve.batches"),
		httpRequests:  reg.Counter("serve.http_requests"),
		queueDepth:    reg.Gauge("serve.queue_depth"),
		freeSlots:     reg.Gauge("serve.free_slots"),
		available:     reg.Gauge("serve.available_slots"),
		total:         reg.Gauge("serve.total_slots"),
		generation:    reg.Gauge("serve.generation"),
		swaps:         reg.Gauge("serve.model_swaps"),
		driftFires:    reg.Gauge("serve.drift_fires"),
		retrainErrors: reg.Gauge("serve.retrain_errors"),
		rejected:      reg.Gauge("serve.rejected"),
	}
	if cache {
		m.cacheHits = reg.Gauge("serve.cache_hits")
		m.cacheMisses = reg.Gauge("serve.cache_misses")
		m.cacheEvictions = reg.Gauge("serve.cache_evictions")
		m.cacheEntries = reg.Gauge("serve.cache_entries")
	}
	return m
}

// observeGauges refreshes the point-in-time metrics from their owners.
// The placer's load state is read through one Snapshot so the exported
// queue depth and capacity describe the same instant.
func (s *Server) observeGauges() {
	snap := s.placer.Snapshot()
	s.met.queueDepth.Set(float64(snap.QueueDepth))
	s.met.freeSlots.Set(float64(snap.FreeSlots))
	s.met.available.Set(float64(snap.Available))
	s.met.total.Set(float64(snap.Total))
	s.met.generation.Set(float64(s.models.Generation()))
	s.met.swaps.Set(float64(s.models.Swaps()))
	s.met.driftFires.Set(float64(s.swapper.DriftFires()))
	s.met.retrainErrors.Set(float64(s.swapper.RetrainErrors()))
	s.met.rejected.Set(float64(s.admission.Rejected()))
	if s.cache != nil {
		st := s.cache.Stats()
		s.met.cacheHits.Set(float64(st.Hits))
		s.met.cacheMisses.Set(float64(st.Misses))
		s.met.cacheEvictions.Set(float64(st.Evictions))
		s.met.cacheEntries.Set(float64(st.Entries))
	}
}

// reject answers 429 with a retry hint and records n refused submissions
// against the admission valve — the single place a rejection is counted,
// exported as the serve.rejected gauge.
func (s *Server) reject(w http.ResponseWriter, after, n int, reason string) {
	w.Header().Set("Retry-After", strconv.Itoa(after))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: reason})
	s.admission.CountRejections(n)
}

// retryAfterCap bounds the Retry-After hint (seconds).
const retryAfterCap = 30

// retryAfter turns the capacity ratio into a backoff hint: 1s at full
// capacity, total/available seconds (rounded up) as capacity shrinks,
// capped — a zero-capacity cluster hints the cap rather than infinity.
func retryAfter(available, total int) int {
	if available <= 0 {
		return retryAfterCap
	}
	return min((total+available-1)/available, retryAfterCap)
}

// placementError maps scoring-path failures onto HTTP statuses using the
// model package's typed errors: a name the library does not know is the
// caller's mistake (400); an empty library is the operator's (503);
// anything else is ours (500).
func (s *Server) placementError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, model.ErrUnknownApp):
		s.met.unknownApp.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case errors.Is(err, model.ErrEmptyLibrary):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// writeJSON emits compact JSON: responses are machine-consumed (load
// generators, pollers), and on the submit path the encoder is a measurable
// share of per-request CPU — pipe through jq for human reading.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
