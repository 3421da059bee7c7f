package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	grazelle "repro"
	"repro/internal/obs"
)

// Worker executes cluster runs against a local graph replica. It layers on
// a full serve-mode store (the worker process keeps the ordinary public API
// for graph admin, which is also how the router resyncs it); HandleRun is
// the one private endpoint the router drives.
type Worker struct {
	store *grazelle.Store

	runs     *obs.Counter
	failures *obs.Counter
}

// NewWorker creates a worker over st.
func NewWorker(st *grazelle.Store) *Worker {
	reg := st.Metrics()
	return &Worker{
		store: st,
		runs: reg.Counter("grazelle_cluster_worker_runs_total",
			"Cluster runs executed by this worker.", nil),
		failures: reg.Counter("grazelle_cluster_worker_run_failures_total",
			"Cluster runs that failed on this worker.", nil),
	}
}

// Mux returns a minimal handler set for in-process tests and harnesses:
// the run endpoint plus a readiness probe. The real worker process serves
// these routes from the full serve mux instead.
func (wk *Worker) Mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/run", wk.HandleRun)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := wk.store.Ready(); err != nil {
			writeClusterError(w, http.StatusServiceUnavailable, "unready", err)
			return
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}

// HandleRun executes one routed run: admit, pin the graph, verify the
// replica matches the router's expectation, then run the query on the
// store's shared engine exactly as this process's own /v1/query would. The
// response carries pre-marshaled summary and values so the router can
// assemble a byte-identical client payload.
func (wk *Worker) HandleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeClusterError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	release, err := wk.store.Admit(ctx)
	if err != nil {
		status, code := http.StatusTooManyRequests, "overloaded"
		if errors.Is(err, grazelle.ErrStoreClosed) {
			status, code = http.StatusServiceUnavailable, "closed"
		}
		writeClusterError(w, status, code, err)
		return
	}
	defer release()

	h, err := wk.store.Acquire(req.Graph)
	if err != nil {
		status, code := http.StatusInternalServerError, "acquire"
		if errors.Is(err, grazelle.ErrGraphNotFound) {
			status, code = http.StatusNotFound, "not_found"
		}
		writeClusterError(w, status, code, err)
		return
	}
	defer h.Close()
	if h.Graph().NumVertices() != req.Vertices || h.Graph().NumEdges() != req.Edges {
		writeClusterError(w, http.StatusConflict, "out_of_sync", fmt.Errorf(
			"cluster: replica has %d vertices / %d edges, router expects %d / %d",
			h.Graph().NumVertices(), h.Graph().NumEdges(), req.Vertices, req.Edges))
		return
	}

	ctx, done := wk.store.TrackRun(ctx)
	defer done()

	res, err := h.Engine().Run(ctx, req.App, grazelle.Params{Iters: req.Iters, Root: req.Root, K: req.K})
	wk.runs.Inc()
	if err != nil {
		wk.failures.Inc()
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
			errors.Is(context.Cause(ctx), grazelle.ErrWatchdogKilled):
			writeClusterError(w, http.StatusGatewayTimeout, "timeout", err)
		default:
			writeClusterError(w, http.StatusInternalServerError, "run", err)
		}
		return
	}
	out := RunResponse{
		Iterations:     res.Stats.Iterations,
		PullIterations: res.Stats.PullIterations,
		PushIterations: res.Stats.PushIterations,
		Mode:           res.Stats.Mode,
		Partitions:     res.Stats.Partitions,
		ElapsedMS:      res.Stats.Total.Milliseconds(),
		Summary:        make(map[string]json.RawMessage),
		Trace: obs.RunTrace{
			Phases:     res.Stats.Phases,
			Directions: res.Stats.Directions,
			Partitions: res.Stats.PartitionStats,
			Dropped:    res.Stats.TraceDropped,
		},
	}
	for _, st := range res.Summary() {
		raw, err := json.Marshal(st.Value)
		if err != nil {
			writeClusterError(w, http.StatusInternalServerError, "serialize", err)
			return
		}
		out.Summary[st.Key] = raw
	}
	if req.Values {
		raw, err := json.Marshal(res.Values())
		if err != nil {
			writeClusterError(w, http.StatusInternalServerError, "serialize", err)
			return
		}
		out.Values = raw
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&out)
}

func writeClusterError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Code: code})
}
