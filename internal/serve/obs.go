package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"

	"tracon/internal/obs"
)

// HTTP-layer observability: request IDs, per-route metrics, structured
// access logging, and the SLO feed. Every handler runs inside instrument,
// which (1) resolves the request ID — accepted from the client's
// X-Request-Id header or minted here — and echoes it on the response,
// (2) records per-route latency and status-class counters, (3) feeds the
// application-aggregate histogram and the SLO tracker for non-operational
// routes, and (4) emits one Debug access-log line carrying the request ID.

// RequestIDHeader is the request/response header carrying the request ID.
const RequestIDHeader = "X-Request-Id"

// ctxKeyReqID keys the request ID in a request context.
type ctxKeyReqID struct{}

// RequestIDFrom extracts the request ID instrument stored in ctx ("" when
// the request did not pass through the instrumented mux).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyReqID{}).(string)
	return id
}

// newRequestID mints "r-<boot entropy>-<n>": unique within a daemon run
// and unlikely to collide across restarts.
func (s *Server) newRequestID() string {
	return fmt.Sprintf("r-%s-%d", s.reqPrefix, s.reqSeq.Add(1))
}

// statusWriter captures the response status for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// statusClasses are the status-class labels; statusClass indexes them.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

func statusClass(code int) int { return min(max(code/100, 1), len(statusClasses)) - 1 }

// opsRoutes are the scrape/probe surfaces: their traffic is operational,
// not application load, so it stays out of the aggregate request-latency
// histogram and the SLO window — a 1s/scrape Prometheus poll must not
// drag the p99 the daemon is judged by. Per-route series still cover them.
var opsRoutes = map[string]bool{
	"/metrics":  true,
	"/healthz":  true,
	"/v1/trace": true,
	"/v1/slo":   true,
}

// routeMetrics is one route's pre-created instrument set; building it at
// registration keeps the per-request path off the registry's name map.
type routeMetrics struct {
	lat *obs.Histogram
	// codes holds the route's status-class counters, each resolved when its
	// class first occurs so a class a route never answers exports no series.
	codes [len(statusClasses)]atomic.Pointer[obs.Counter]
}

func (rm *routeMetrics) code(reg *obs.Registry, route string, code int) *obs.Counter {
	class := statusClass(code)
	c := rm.codes[class].Load()
	if c == nil {
		c = reg.Counter(obs.Labeled("serve.http_requests", "code", statusClasses[class], "route", route))
		rm.codes[class].Store(c)
	}
	return c
}

// instrument wraps a handler with the full request-scoped pipeline.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := &routeMetrics{
		lat: s.reg.Histogram(obs.Labeled("serve.http_request_seconds", "route", route), obs.DefaultLatencyBuckets()),
	}
	ops := opsRoutes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get(RequestIDHeader)
		if reqID == "" {
			reqID = s.newRequestID()
		}
		w.Header().Set(RequestIDHeader, reqID)
		ctx := context.WithValue(r.Context(), ctxKeyReqID{}, reqID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}

		t0 := s.clock.Now()
		h(sw, r.WithContext(ctx))
		elapsed := s.clock.Since(t0).Seconds()

		rm.lat.Observe(elapsed)
		rm.code(s.reg, route, sw.code).Inc()
		if !ops {
			s.latency.Observe(elapsed)
			s.met.httpRequests.Inc()
			// 429s burn the error budget: shed load is broken load from the
			// client's point of view, which is the SLO's point of view.
			s.slo.Record(elapsed, sw.code >= 500 || sw.code == http.StatusTooManyRequests)
		}
		s.logger.LogAttrs(ctx, slog.LevelDebug, "http request",
			slog.String("req_id", reqID),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("code", sw.code),
			slog.Float64("dur_ms", elapsed*1e3),
		)
	}
}

// sloReport evaluates the objectives and logs status transitions exactly
// once per change (evaluation happens on /v1/slo and /healthz, so a
// scraped daemon notices within one probe interval).
func (s *Server) sloReport() obs.SLOReport {
	rep := s.slo.Report()
	if prev := s.sloStatus.Swap(rep.Status); prev != nil && prev.(string) != rep.Status {
		level := slog.LevelWarn
		if rep.Status == obs.SLOStatusOK {
			level = slog.LevelInfo
		}
		s.logger.LogAttrs(context.Background(), level, "slo status changed",
			slog.String("from", prev.(string)),
			slog.String("to", rep.Status),
			slog.Float64("p99_s", rep.Latency.P99),
			slog.Float64("error_rate", rep.ErrorRate),
			slog.Float64("error_budget_left", rep.ErrorBudgetLeft),
		)
	}
	return rep
}

// handleSLO serves GET /v1/slo.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sloReport())
}

// handleTrace serves GET /v1/trace: the span ring as schema-3 NDJSON, the
// same stream format the offline experiment suites export, so
// tracontrace consumes daemon traces unchanged.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "tracing is disabled"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.tracer.writeNDJSON(w)
}

// newReqPrefix draws the boot entropy for request IDs.
func newReqPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0"
	}
	return hex.EncodeToString(b[:])
}

// discardLogger satisfies a nil Config.Logger: everything dropped.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
		Level: slog.Level(127), // above every defined level
	}))
}
