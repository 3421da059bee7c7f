package main

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// This file is the serve mode's observability layer: HTTP metric families
// registered on top of the store's registry, per-handler instrumentation
// (latency histogram + status-class counter + structured request log), and
// the /v1/runs endpoints over the service's run-record ring.

// statusClasses pre-registers the full label space for the response counter
// so the catalog is stable from the first scrape and the hot path never
// takes a registration lock.
var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// route holds the per-pattern instruments created at mux build time.
type route struct {
	dur     *obs.Histogram
	byClass map[string]*obs.Counter
}

// newRoute registers one pattern's HTTP families in the store's registry, so
// /metrics renders one coherent catalog with the service's run families.
func newRoute(reg *obs.Registry, method, path string) *route {
	rt := &route{
		dur: reg.Histogram("grazelle_http_request_seconds", "HTTP request latency by route.",
			obs.Labels{"method": method, "path": path}, obs.DefTimeBuckets),
		byClass: make(map[string]*obs.Counter, len(statusClasses)),
	}
	for _, class := range statusClasses {
		rt.byClass[class] = reg.Counter("grazelle_http_responses_total", "HTTP responses by route and status class.",
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
	rt := newRoute(s.store.Metrics(), method, path)
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

// handleRuns returns the most recent run records, newest first. ?n= bounds
// the count (default all retained).
func (s *server) handleRuns(w http.ResponseWriter, r *http.Request) {
	recent := s.svc.Runs().Recent()
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

// handleRunByID returns one run's record — per-phase wall times, chunk
// counts, frontier densities — or 404 once it ages out of the ring.
func (s *server) handleRunByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.svc.Runs().Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errRunNotFound)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
