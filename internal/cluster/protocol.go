// Package cluster is the horizontal scale-out tier: a router process that
// owns the graph catalog and serves the public query API, and worker
// processes that each hold a full replica of every graph and answer whole
// queries.
//
// A routed query is one POST /internal/run to one worker. The router ranks
// its healthy, in-sync replicas by rendezvous hash of the query, so the same
// query lands on the same replica while the roster is stable and losing a
// worker moves only that worker's queries; the chosen worker runs the query
// through service.Execute — the call its own /v1/query makes — and returns
// the response body plus the engine's run trace. The router passes that body
// on untouched, so its answers are a single process's bytes: there is one
// computation, on one engine, through one code path. A failure another replica could cure (unreachable, trailing the
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
	"repro/internal/service"
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

// RunSpec is one normalized query — its timeout_ms what is left of the
// client's deadline — plus the pinned graph's identity facts: the router-side
// input to Execute and, under a run ID, the body of POST /internal/run.
type RunSpec struct {
	service.Query
	// Vertices and Edges are the router replica's counts at the pinned
	// version; a worker whose replica disagrees refuses the run with
	// out_of_sync instead of computing a divergent answer.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
}

// RunRequest is the router → worker body of POST /internal/run.
type RunRequest struct {
	RunID string `json:"run_id"`
	RunSpec
}

// RunResponse is the worker → router body of a successful /internal/run.
type RunResponse struct {
	// Body is the finished client response — what the worker's own /v1/query
	// would have written under this run ID — less the trailing newline, which
	// JSON embedding drops and the router restores.
	Body json.RawMessage `json:"body"`
	// Iterations, Mode, Kernel and Trace (the engine's phase and direction
	// breakdown) fill the router's run record.
	Iterations int          `json:"iterations"`
	Mode       string       `json:"mode"`
	Kernel     string       `json:"kernel"`
	Trace      obs.RunTrace `json:"trace"`
}

// errorBody is the typed error JSON of /internal/run.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
