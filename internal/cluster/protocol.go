// Package cluster is the horizontal scale-out tier: a router process that
// owns the graph catalog and serves the public query API, and worker
// processes that each hold a full replica of every graph and answer whole
// queries.
//
// A routed query is one POST /internal/run to one worker. The router ranks
// its healthy, in-sync replicas by rendezvous hash of the query, so the same
// query lands on the same replica while the roster is stable and losing a
// worker moves only that worker's queries; the chosen worker runs the query
// on its store's shared engine — the call its own /v1/query makes — and
// returns the pre-marshaled summary and values plus the engine's run trace.
// Router answers are therefore byte-identical to a single process's by
// construction: there is one computation, on one engine, through one code
// path. A failure another replica could cure (unreachable, trailing the
// catalog, overloaded) is retried once on the next replica in rank.
//
// What keeps replicas equal is the catalog: every add, delete and mutation
// batch goes through the router, which applies it locally, broadcasts it to
// the in-sync workers and retains it for replay onto a worker that restarts
// or falls behind (see Router.resync). A replica whose shape disagrees with
// the router's refuses the run with out_of_sync instead of answering from a
// stale version.
package cluster

import (
	"encoding/json"

	"repro/internal/obs"
)

// GraphSpec describes how to materialize one graph on a worker — the same
// fields the public POST /v1/graphs accepts, so the router replays its
// catalog through a worker's ordinary serving API when resyncing it.
type GraphSpec struct {
	Name    string  `json:"name"`
	Dataset string  `json:"dataset,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Path    string  `json:"path,omitempty"`
}

// RunSpec is one normalized query plus the pinned graph's identity facts:
// the router-side input to Execute and, under a run ID, the body of
// POST /internal/run.
type RunSpec struct {
	Graph  string `json:"graph"`
	App    string `json:"app"`
	Iters  int    `json:"iters"`
	Root   uint32 `json:"root"`
	K      int    `json:"k"`
	Values bool   `json:"values"`
	// Vertices and Edges are the router replica's counts at the pinned
	// version; a worker whose replica disagrees refuses the run with
	// out_of_sync instead of computing a divergent answer.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// TimeoutMS bounds the worker-side run (0 = the request's own deadline).
	TimeoutMS int64 `json:"timeout_ms"`
}

// RunRequest is the router → worker body of POST /internal/run.
type RunRequest struct {
	RunID string `json:"run_id"`
	RunSpec
}

// RunResponse is the worker → router body of a successful /internal/run.
// Summary values and Values are pre-marshaled on the worker and passed
// through the router verbatim, so the assembled client payload is
// byte-identical to what the worker's own /v1/query would emit.
type RunResponse struct {
	Iterations     int                        `json:"iterations"`
	PullIterations int                        `json:"pull_iterations"`
	PushIterations int                        `json:"push_iterations"`
	Mode           string                     `json:"mode"`
	Partitions     int                        `json:"partitions"`
	ElapsedMS      int64                      `json:"elapsed_ms"`
	Summary        map[string]json.RawMessage `json:"summary"`
	Values         json.RawMessage            `json:"values,omitempty"`
	// Trace is the engine's phase, direction and partition breakdown of the
	// run, for the router's run record.
	Trace obs.RunTrace `json:"trace"`
}

// errorBody is the typed error JSON of /internal/run.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
