package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	grazelle "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
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

// runOnCluster is the router's runner on the service spine: where serve and
// worker run the local engine, the router places the whole query on one
// worker and passes that worker's response body through untouched.
func (s *server) runOnCluster(ctx context.Context, h *grazelle.StoreHandle, q service.Query, rec *obs.RunRecord) ([]byte, error) {
	// The per-graph read lock serializes this run against catalog writes
	// (mutations, replace, delete), which hold it for writing around local
	// apply + broadcast. The handle was acquired before the lock, so re-check
	// the version under it: past the check, every replica the run lands on
	// serves exactly the version the cache will index the result under.
	l := s.cluster.LockGraph(q.Graph)
	l.RLock()
	defer l.RUnlock()
	if v, err := s.store.Version(q.Graph); err != nil {
		return nil, err
	} else if v != h.Version() {
		return nil, fmt.Errorf("%w: graph %q moved from version %d to %d while placing the run",
			grazelle.ErrMutationConflict, q.Graph, h.Version(), v)
	}

	// The worker gets what is left of this request's deadline.
	if dl, ok := ctx.Deadline(); ok {
		q.TimeoutMS = max(time.Until(dl).Milliseconds(), 1)
	}
	res, err := s.cluster.Execute(ctx, rec.ID, cluster.RunSpec{
		Query: q, Vertices: h.Graph().NumVertices(), Edges: h.Graph().NumEdges(),
	})
	if err != nil {
		return nil, err
	}
	// The run record carries the answering worker's engine trace and which
	// worker that was.
	rec.Trace, rec.Worker = res.Trace, res.Worker
	rec.Iters, rec.Mode, rec.Kernel = res.Iterations, res.Mode, res.Kernel
	return res.Body, nil
}
