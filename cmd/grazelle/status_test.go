package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	grazelle "repro"
	"repro/internal/cluster"
	"repro/internal/qcache"
)

// TestQueryErrorStatus is the table of every error a query can end in on the
// routed path — what Router.Execute returns, what runOnCluster adds around
// it, and the admission and acquire failures in front of both — against the
// status and Retry-After header the client sees. Nothing in the cluster tier
// produces an error outside this table: Execute returns a *PeerError, an
// *UnavailableError wrapping one, or nothing.
func TestQueryErrorStatus(t *testing.T) {
	peer := func(status int, code string) *cluster.PeerError {
		return &cluster.PeerError{Worker: "http://w1", Status: status, Code: code, Msg: "refused"}
	}
	transport := &cluster.PeerError{Worker: "http://w1", Err: errors.New("connection refused")}
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter bool
	}{
		{"no healthy synced workers", &cluster.UnavailableError{Reason: "no healthy synced workers"}, 503, true},
		{"failover exhausted on a dead worker", &cluster.UnavailableError{Reason: "failover exhausted", Cause: transport}, 503, true},
		{"failover exhausted on two busy workers", &cluster.UnavailableError{Reason: "failover exhausted", Cause: peer(429, "overloaded")}, 503, true},
		{"worker overloaded", peer(429, "overloaded"), 429, true},
		{"worker timed out", peer(504, "timeout"), 504, false},
		{"worker engine error", peer(500, "run"), 502, false},
		{"worker store closing", peer(503, "closed"), 502, false},
		{"worker unreachable, caller gave up", transport, 502, false},
		{"version moved while placing the run", fmt.Errorf("%w: graph moved", grazelle.ErrMutationConflict), 409, false},
		{"watchdog kill", fmt.Errorf("%w (%v)", grazelle.ErrWatchdogKilled, transport), 503, false},
		{"request deadline", fmt.Errorf("post: %w", context.DeadlineExceeded), 504, false},
		{"router admission full", grazelle.ErrOverloaded, 429, true},
		{"unknown graph", grazelle.ErrGraphNotFound, 404, false},
		{"unknown app", errors.New("apps: unknown app"), 400, false},
	}
	s := &server{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := queryStatus(tc.err); got != tc.status {
				t.Errorf("queryStatus = %d, want %d", got, tc.status)
			}
			rec := httptest.NewRecorder()
			s.writeQueryResult(rec, qcache.Result{RunID: "run-7"}, "bypass", tc.err)
			if rec.Code != tc.status {
				t.Errorf("response status = %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
				t.Errorf("Retry-After present = %t, want %t", got, tc.retryAfter)
			}
			if rec.Header().Get("X-Run-Id") != "run-7" || rec.Header().Get("X-Cache") != "bypass" {
				t.Errorf("run and cache headers lost on the error path: %v", rec.Header())
			}
			if !strings.Contains(rec.Body.String(), `"error"`) {
				t.Errorf("untyped error body: %s", rec.Body)
			}
		})
	}

	rec := httptest.NewRecorder()
	s.writeQueryResult(rec, qcache.Result{Payload: []byte("{}\n")}, "hit", nil)
	if rec.Code != http.StatusOK || rec.Body.String() != "{}\n" || rec.Header().Get("Retry-After") != "" {
		t.Errorf("success path: status %d body %q headers %v", rec.Code, rec.Body, rec.Header())
	}
}
