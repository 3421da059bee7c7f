package main

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the serve mode's observability layer: HTTP- and run-level
// metric families registered on top of the store's registry, per-handler
// instrumentation (latency histogram + status-class counter + structured
// request log), run-ID generation, and the /v1/runs trace ring endpoints.

// statusClasses pre-registers the full label space for the response counter
// so the catalog is stable from the first scrape and the hot path never
// takes a registration lock.
var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// serveMetrics holds the serve layer's metric handles. The families live in
// the store's registry so /metrics renders one coherent catalog.
type serveMetrics struct {
	reg *obs.Registry
	// runSeconds observes each query run's wall time; phaseSeconds splits it
	// by engine phase from the run trace; tracesDropped counts runs whose
	// trace was abandoned mid-run.
	runSeconds    *obs.Histogram
	phaseSeconds  map[string]*obs.Histogram
	tracesDropped *obs.Counter
	// incrementalSeeded counts runs warm-started from a predecessor result;
	// incrementalFallback counts attempts (capability + candidate + delta
	// under threshold) that still ran cold.
	incrementalSeeded   *obs.Counter
	incrementalFallback *obs.Counter
	// exchangeShmem is grazelle_exchange_bytes_total{transport="shmem"}:
	// frontier bytes moved through the partitioned coordinator's
	// shared-memory exchange, the only transport there is.
	exchangeShmem *obs.Counter
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	m := &serveMetrics{
		reg:           reg,
		runSeconds:    reg.Histogram("grazelle_run_seconds", "Engine run wall time per query.", nil, obs.DefTimeBuckets),
		phaseSeconds:  make(map[string]*obs.Histogram, int(obs.NumPhases)),
		tracesDropped: reg.Counter("grazelle_run_traces_dropped_total", "Runs whose phase trace was abandoned mid-run.", nil),
		incrementalSeeded: reg.Counter("grazelle_incremental_seeded_total",
			"Query runs warm-started from a cached predecessor result.", nil),
		incrementalFallback: reg.Counter("grazelle_incremental_fallback_total",
			"Incremental attempts that fell back to a full recompute.", nil),
		exchangeShmem: reg.Counter("grazelle_exchange_bytes_total",
			"Frontier exchange bytes by transport.", obs.Labels{"transport": "shmem"}),
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		name := p.String()
		m.phaseSeconds[name] = reg.Histogram("grazelle_run_phase_seconds",
			"Engine run wall time split by phase.", obs.Labels{"phase": name}, obs.DefTimeBuckets)
	}
	return m
}

// observeRun feeds one finished query run into the run-level families and
// returns the trace carried into the run record.
func (m *serveMetrics) observeRun(wall time.Duration, phases []obs.PhaseStat, dropped bool) {
	m.runSeconds.Observe(wall.Seconds())
	for _, ph := range phases {
		if h := m.phaseSeconds[ph.Phase]; h != nil {
			h.Observe(ph.Wall.Seconds())
		}
	}
	if dropped {
		m.tracesDropped.Inc()
	}
}

// route holds the per-pattern instruments created at mux build time.
type route struct {
	dur     *obs.Histogram
	byClass map[string]*obs.Counter
}

func (m *serveMetrics) route(method, path string) *route {
	rt := &route{
		dur: m.reg.Histogram("grazelle_http_request_seconds", "HTTP request latency by route.",
			obs.Labels{"method": method, "path": path}, obs.DefTimeBuckets),
		byClass: make(map[string]*obs.Counter, len(statusClasses)),
	}
	for _, class := range statusClasses {
		rt.byClass[class] = m.reg.Counter("grazelle_http_responses_total", "HTTP responses by route and status class.",
			obs.Labels{"method": method, "path": path, "code": class})
	}
	return rt
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func statusClass(code int) string {
	switch {
	case code >= 200 && code < 300:
		return "2xx"
	case code >= 300 && code < 400:
		return "3xx"
	case code >= 400 && code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// probeRoutes are logged at Debug so scrapes and health checks do not flood
// the request log; everything else logs at Info.
var probeRoutes = map[string]bool{"/healthz": true, "/readyz": true, "/metrics": true}

// instrument wraps one handler with its route's latency histogram, response
// counter, and a structured request log line. The deferred block runs even
// when the handler panics (the recovery middleware above it writes the 500),
// so crashed requests are still counted and logged — with status 0 mapped to
// the 5xx class.
func (s *server) instrument(pattern string, next http.HandlerFunc) http.HandlerFunc {
	method, path := splitPattern(pattern)
	rt := s.metrics.route(method, path)
	return func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			elapsed := time.Since(start)
			status := sr.status
			if status == 0 {
				status = http.StatusInternalServerError
			}
			rt.dur.Observe(elapsed.Seconds())
			rt.byClass[statusClass(status)].Inc()
			level := slog.LevelInfo
			if probeRoutes[path] {
				level = slog.LevelDebug
			}
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"route", path,
				"status", status,
				"elapsed_us", elapsed.Microseconds(),
			}
			if id := sr.Header().Get("X-Run-Id"); id != "" {
				attrs = append(attrs, "run_id", id)
			}
			s.log.Log(r.Context(), level, "request", attrs...)
		}()
		next(sr, r)
	}
}

// splitPattern splits a "METHOD /path" ServeMux pattern into its parts.
func splitPattern(pattern string) (method, path string) {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == ' ' {
			return pattern[:i], pattern[i+1:]
		}
	}
	return "", pattern
}

// runSeq numbers runs within this process; IDs are "run-<n>".
var runSeq atomic.Uint64

func nextRunID() string {
	return "run-" + strconv.FormatUint(runSeq.Add(1), 10)
}

// handleRuns returns the most recent run records, newest first. ?n= bounds
// the count (default all retained).
func (s *server) handleRuns(w http.ResponseWriter, r *http.Request) {
	recent := s.ring.Recent()
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, errBadRunCount)
			return
		}
		if n < len(recent) {
			recent = recent[:n]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": recent})
}

// handleRunByID returns one run's record — per-phase wall times, chunk and
// steal counts, frontier densities — or 404 once it ages out of the ring.
func (s *server) handleRunByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.ring.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errRunNotFound)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
