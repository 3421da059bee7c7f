package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	grazelle "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

// Worker answers routed runs from a local graph replica. It layers on a full
// serve-mode service (the worker process keeps the ordinary public API for
// graph admin, which is also how the router resyncs it); HandleRun is the one
// private endpoint the router drives.
type Worker struct {
	svc *service.Service

	runs     *obs.Counter
	failures *obs.Counter
}

// NewWorker creates a worker over svc.
func NewWorker(svc *service.Service) *Worker {
	reg := svc.Store().Metrics()
	return &Worker{
		svc: svc,
		runs: reg.Counter("grazelle_cluster_worker_runs_total",
			"Cluster runs executed by this worker.", nil),
		failures: reg.Counter("grazelle_cluster_worker_run_failures_total",
			"Cluster runs that failed on this worker.", nil),
	}
}

// HandleRun is the codec of POST /internal/run: decode, run the query through
// the service exactly as this process's own /v1/query would — under the
// router's run ID and shape expectation — and return the finished response
// body with the engine's trace, or the typed verdict the router's failover
// classifies.
func (wk *Worker) HandleRun(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, service.MaxBodyBytes)
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeClusterError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	body, rec, err := wk.svc.ExecuteRouted(r.Context(), req.Query, req.RunID, req.Vertices, req.Edges)
	if rec.ID != "" { // the run started
		wk.runs.Inc()
		if err != nil {
			wk.failures.Inc()
		}
	}
	if err != nil {
		status, code := runVerdict(err)
		writeClusterError(w, status, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&RunResponse{
		Body:       body,
		Iterations: rec.Iters,
		Mode:       rec.Mode,
		Kernel:     rec.Kernel,
		Trace:      rec.Trace,
	})
}

// runVerdict maps a failed routed run to the status and typed code of its
// /internal/run error body.
func runVerdict(err error) (status int, code string) {
	var oos *service.OutOfSyncError
	var ce *grazelle.CorruptSnapshotError
	var re *grazelle.RehydrateError
	switch {
	case errors.As(err, &oos):
		return http.StatusConflict, "out_of_sync"
	case errors.Is(err, grazelle.ErrGraphNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, grazelle.ErrStoreClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, grazelle.ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "timeout"
	case errors.As(err, &ce), errors.As(err, &re):
		return http.StatusInternalServerError, "acquire"
	default:
		return http.StatusInternalServerError, "run"
	}
}

func writeClusterError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Code: code})
}
