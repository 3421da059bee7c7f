package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	grazelle "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// Cluster tier command wiring. `grazelle worker` and `grazelle router` are
// both the ordinary serve mode plus a role (see runServeRole in serve.go):
//
//	grazelle worker -addr :8474
//	grazelle worker -addr :8475
//	grazelle router -addr :8473 -workers http://127.0.0.1:8474,http://127.0.0.1:8475 -d C
//
// Workers need no preload flags — the router's health loop pushes the graph
// catalog (adds and retained mutation batches) through each worker's public
// API until the replica matches, and only then routes runs to it. The
// router keeps the full public surface (/v1/query, /v1/batch, the cache,
// graph admin) unchanged; only the compute underneath a query moves to one
// worker of the roster. GET /v1/cluster (router only) reports the roster
// and how many runs each worker answered.

func runWorker(args []string) error { return runServeRole("worker", args) }

func runRouter(args []string) error { return runServeRole("router", args) }

// handleClusterStatus is GET /v1/cluster: roster health and the
// run/failover counters. The same document is embedded in /v1/stats under
// "cluster".
func (s *server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.Status())
}

// runOnCluster is the router's replacement for the local engine run in
// runOnHandle: same admission, cache, watchdog, run-record, and response
// framing — the compute in the middle is one worker's run of the whole
// query.
func (s *server) runOnCluster(ctx context.Context, h *grazelle.StoreHandle, req queryRequest) (qcache.Result, error) {
	// The per-graph read lock serializes this run against catalog writes
	// (mutations, replace, delete), which hold it for writing around local
	// apply + broadcast. The handle was acquired before the lock, so re-check
	// the version under it: past the check, every replica the run lands on
	// serves exactly the version the cache will index the result under.
	l := s.cluster.LockGraph(req.Graph)
	l.RLock()
	defer l.RUnlock()
	if v, err := s.store.Version(req.Graph); err != nil {
		return qcache.Result{}, err
	} else if v != h.Version() {
		return qcache.Result{}, fmt.Errorf("%w: graph %q moved from version %d to %d while placing the run",
			grazelle.ErrMutationConflict, req.Graph, h.Version(), v)
	}

	// Watchdog tracking: a wedged cluster run past -hard-limit is cancelled
	// through ctx, which cancels the post to the worker.
	ctx, done := s.store.TrackRun(ctx)
	defer done()

	runID := nextRunID()
	start := time.Now()
	var timeoutMS int64
	if dl, ok := ctx.Deadline(); ok {
		timeoutMS = time.Until(dl).Milliseconds()
		if timeoutMS < 1 {
			timeoutMS = 1
		}
	}
	res, err := s.cluster.Execute(ctx, runID, cluster.RunSpec{
		Graph:     req.Graph,
		App:       req.App,
		Iters:     req.Iters,
		Root:      req.Root,
		K:         req.K,
		Values:    req.Values,
		Vertices:  h.Graph().NumVertices(),
		Edges:     h.Graph().NumEdges(),
		TimeoutMS: timeoutMS,
	})

	// The run record carries the answering worker's engine trace and which
	// worker that was; wall is this process's view, the post included.
	rec := obs.RunRecord{
		ID:       runID,
		Graph:    req.Graph,
		App:      req.App,
		Start:    start,
		Wall:     time.Since(start),
		Vertices: int64(h.Graph().NumVertices()),
		Edges:    int64(h.Graph().NumEdges()),
	}
	if res != nil {
		rec.Trace = res.Trace
		rec.Worker = res.Worker
		rec.Iters = res.Iterations
		rec.Mode = res.Mode
		rec.Partitions = res.Partitions
	}
	if err != nil {
		rec.Error = err.Error()
	}
	s.metrics.observeRun(rec.Wall, rec.Trace.Phases, rec.Trace.Dropped)
	s.ring.Add(rec)

	if err != nil {
		if errors.Is(context.Cause(ctx), grazelle.ErrWatchdogKilled) {
			err = fmt.Errorf("%w (%v)", grazelle.ErrWatchdogKilled, err)
		}
		return qcache.Result{RunID: runID}, err
	}

	// Assemble exactly the map runOnHandle builds; the summary and values
	// arrive pre-marshaled from the worker, and json.Marshal embeds
	// RawMessage byte-for-byte, so router responses are byte-identical to
	// single-process ones (modulo run_id and elapsed_ms).
	resp := map[string]any{
		"run_id":          runID,
		"graph":           req.Graph,
		"app":             req.App,
		"iterations":      res.Iterations,
		"pull_iterations": res.PullIterations,
		"push_iterations": res.PushIterations,
		"mode":            res.Mode,
		"partitions":      res.Partitions,
		"elapsed_ms":      res.ElapsedMS,
	}
	for k, v := range res.Summary {
		resp[k] = v
	}
	if req.Values && len(res.Values) > 0 {
		resp["values"] = res.Values
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		return qcache.Result{RunID: runID}, err
	}
	payload = append(payload, '\n')
	return qcache.Result{Payload: payload, RunID: runID, Version: h.Version()}, nil
}
