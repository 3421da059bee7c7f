package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/service"
)

// POST /v1/batch: run a list of queries in one request through
// service.ExecuteBatch. Each entry reports how it was satisfied (hit / miss /
// coalesced / error), mirroring the X-Cache header on the single-query path.

// maxBatchQueries bounds one batch; bigger workloads should stream batches.
const maxBatchQueries = 256

// batchItem is one entry's outcome in the batch response, aligned by index
// with the request's queries.
type batchItem struct {
	// Status is hit, miss, coalesced, or error. In-batch duplicates of a
	// computed entry report coalesced, same as concurrent identical queries.
	Status string `json:"status"`
	// Code and Error carry the HTTP-equivalent status and message for
	// Status == "error" entries.
	Code  int    `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
	// Response is the entry's full query response (the same bytes a
	// /v1/query call would return).
	Response json.RawMessage `json:"response,omitempty"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req struct {
		Queries   []service.Query `json:"queries"`
		TimeoutMS int64           `json:"timeout_ms"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch: queries is required"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds the %d-query limit", len(req.Queries), maxBatchQueries))
		return
	}
	items := make([]batchItem, len(req.Queries))
	for i, br := range s.svc.ExecuteBatch(r.Context(), req.Queries, req.TimeoutMS) {
		if br.Err != nil {
			items[i] = batchItem{Status: "error", Code: queryStatus(br.Err), Error: br.Err.Error()}
		} else {
			items[i] = batchItem{Status: string(br.Outcome), Response: br.Result.Payload}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": items})
}
