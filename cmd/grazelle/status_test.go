package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	grazelle "repro"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/qcache"
	"repro/internal/service"
	"repro/internal/vec"
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

// newTestServer is one serving role in-process: a store holding the C analog
// as "default" (plus extra), behind the role's real mux. Workers start empty,
// as the real ones do; a router replays its catalog onto them.
func newTestServer(t *testing.T, role string, sc grazelle.StoreConfig, workers []string, extra ...string) (*server, string) {
	t.Helper()
	sc.Workers = 2
	sc.Options = grazelle.Options{Trace: true}
	st, err := grazelle.OpenStore(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := newServer(role, slog.New(slog.DiscardHandler), service.Config{
		Store:      st,
		Cache:      qcache.New(qcache.Config{Budget: 16 << 20}),
		MaxTimeout: 30 * time.Second,
		Workers:    2,
		RunHistory: 32,
	}, cluster.RouterConfig{Workers: workers, HealthInterval: 20 * time.Millisecond})
	if role != "worker" {
		for _, name := range append([]string{"default"}, extra...) {
			g, err := grazelle.GenerateDataset("C", 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Add(name, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	if s.cluster != nil {
		t.Cleanup(s.cluster.Close)
		s.cluster.RecordGraph(cluster.GraphSpec{Name: "default", Dataset: "C", Scale: 0.25})
		s.cluster.Start()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if ws := s.cluster.Status().Workers; len(ws) > 0 && ws[0].Synced {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("workers never synced: %+v", s.cluster.Status())
			}
		}
	}
	return s, ts.URL
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// oversized is a syntactically fine JSON body past maxBodyBytes.
var oversized = `{"app":"pr","graph":"` + strings.Repeat("x", maxBodyBytes) + `"}`

// TestQueryCodec is the /v1/query codec table: what the handler alone decides
// (malformed and oversized bodies) and what it maps from Execute's outcome —
// the status, the X-Cache state, and an X-Run-Id whenever a run was issued.
func TestQueryCodec(t *testing.T) {
	_, base := newTestServer(t, "serve", grazelle.StoreConfig{}, nil)
	cases := []struct {
		name, body string
		status     int
		xcache     string
		runID      bool
	}{
		{"bad JSON", `{"app":`, 400, "", false},
		{"oversized", oversized, 400, "", false},
		{"unknown app", `{"app":"nope"}`, 400, "", false},
		{"unknown graph", `{"app":"pr","graph":"nope"}`, 404, "", false},
		{"unknown graph, no cache", `{"app":"pr","graph":"nope","no_cache":true}`, 404, "bypass", false},
		{"miss", `{"app":"bfs","root":1}`, 200, "miss", true},
		{"hit", `{"app":"bfs","root":1,"iters":7}`, 200, "hit", true},
		{"bypass", `{"app":"bfs","root":1,"no_cache":true}`, 200, "bypass", true},
		{"deadline mid-run", `{"app":"pr","iters":1048576,"timeout_ms":50}`, 504, "miss", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, base+"/v1/query", tc.body)
			if resp.StatusCode != tc.status || resp.Header.Get("X-Cache") != tc.xcache || (resp.Header.Get("X-Run-Id") != "") != tc.runID {
				t.Errorf("status %d X-Cache %q X-Run-Id %q, want %d %q (run ID %t): %.200s", resp.StatusCode,
					resp.Header.Get("X-Cache"), resp.Header.Get("X-Run-Id"), tc.status, tc.xcache, tc.runID, raw)
			}
			var body map[string]any
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatalf("body is not JSON: %.200s", raw)
			}
			if id, _ := body["run_id"].(string); tc.status == 200 && id != resp.Header.Get("X-Run-Id") {
				t.Errorf("X-Run-Id %q, body run_id %q", resp.Header.Get("X-Run-Id"), id)
			}
			if _, isErr := body["error"]; isErr != (tc.status != 200) {
				t.Errorf("error field present %t on status %d", isErr, tc.status)
			}
		})
	}
}

// TestMutateCodec: POST …/edges refuses an empty batch and any op naming a
// vertex id at or past the 2^31 bound with 400, before anything is logged —
// the next batch the graph accepts is its first.
func TestMutateCodec(t *testing.T) {
	_, base := newTestServer(t, "serve", grazelle.StoreConfig{}, nil)
	for name, body := range map[string]string{
		"empty":          `{"ops":[]}`,
		"src past bound": `{"ops":[{"src":2147483648,"dst":0}]}`,
		"dst past bound": `{"ops":[{"src":1,"dst":2},{"src":0,"dst":4294967295}]}`,
	} {
		if resp, raw := post(t, base+"/v1/graphs/default/edges", body); resp.StatusCode != 400 || !bytes.Contains(raw, []byte(`"error"`)) {
			t.Errorf("%s: status %d body %.200s", name, resp.StatusCode, raw)
		}
	}
	resp, raw := post(t, base+"/v1/graphs/default/edges", `{"ops":[{"src":1,"dst":2}]}`)
	var out struct{ Seq uint64 }
	if err := json.Unmarshal(raw, &out); err != nil || resp.StatusCode != 200 || out.Seq != 1 {
		t.Errorf("a valid batch after the refused ones: status %d, %v: %.200s; want 200 and seq 1", resp.StatusCode, err, raw)
	}
}

// TestBatchCodec: the requests /v1/batch refuses whole, and the per-entry
// status, code and response of one it runs.
func TestBatchCodec(t *testing.T) {
	_, base := newTestServer(t, "serve", grazelle.StoreConfig{}, nil)
	for name, body := range map[string]string{
		"bad JSON":  `{"queries":`,
		"oversized": `{"queries":[` + oversized + `]}`,
		"empty":     `{"queries":[]}`,
		"too many":  `{"queries":[` + strings.Repeat(`{"app":"pr"},`, maxBatchQueries) + `{"app":"pr"}]}`,
	} {
		if resp, raw := post(t, base+"/v1/batch", body); resp.StatusCode != 400 || !bytes.Contains(raw, []byte(`"error"`)) {
			t.Errorf("%s: status %d body %.200s", name, resp.StatusCode, raw)
		}
	}
	resp, raw := post(t, base+"/v1/batch", `{"queries":[{"app":"cc"},{"app":"nope"},{"app":"cc","iters":3},{"app":"pr","graph":"nope"}]}`)
	var out struct {
		Results []batchItem `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || resp.StatusCode != 200 || len(out.Results) != 4 {
		t.Fatalf("status %d, %v: %.300s", resp.StatusCode, err, raw)
	}
	want := []batchItem{{Status: "miss"}, {Status: "error", Code: 400}, {Status: "coalesced"}, {Status: "error", Code: 404}}
	for i, it := range out.Results {
		if it.Status != want[i].Status || it.Code != want[i].Code || (it.Error != "") != (it.Status == "error") || (len(it.Response) > 0) != (it.Status != "error") {
			t.Errorf("entry %d: %+v, want %+v", i, it, want[i])
		}
	}
	if single, direct := post(t, base+"/v1/query", `{"app":"cc"}`); single.Header.Get("X-Cache") != "hit" || string(direct) != string(out.Results[0].Response)+"\n" {
		t.Errorf("a batch entry's response is not the /v1/query body: X-Cache %q\n%.200s\n%.200s",
			single.Header.Get("X-Cache"), direct, out.Results[0].Response)
	}
}

// TestWorkerCodec: /internal/run through the worker's real mux — malformed and
// oversized bodies are refused as bad requests, a graph the replica lacks and
// a shape it disagrees with keep their typed verdicts.
func TestWorkerCodec(t *testing.T) {
	wk, base := newTestServer(t, "worker", grazelle.StoreConfig{}, nil)
	g, err := grazelle.GenerateDataset("C", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := wk.store.Add("default", g); err != nil {
		t.Fatal(err)
	}
	run := func(vertices int) string {
		return fmt.Sprintf(`{"run_id":"r-1","graph":"default","app":"cc","vertices":%d,"edges":%d}`, vertices, g.NumEdges())
	}
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"bad JSON", `{"run_id":`, 400, "bad_request"},
		{"oversized", oversized, 400, "bad_request"},
		{"unknown graph", `{"run_id":"r-0","graph":"nope","app":"cc"}`, 404, "not_found"},
		{"out of sync", run(g.NumVertices() + 1), 409, "out_of_sync"},
		{"unknown app", `{"run_id":"r-0","graph":"default","app":"nope"}`, 500, "run"},
		{"ok", run(g.NumVertices()), 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, base+"/internal/run", tc.body)
			var eb struct {
				Code string          `json:"code"`
				Body json.RawMessage `json:"body"`
			}
			if err := json.Unmarshal(raw, &eb); err != nil || resp.StatusCode != tc.status || eb.Code != tc.code {
				t.Fatalf("status %d code %q (%v), want %d %q: %.200s", resp.StatusCode, eb.Code, err, tc.status, tc.code, raw)
			}
			if tc.status == 200 && !bytes.Contains(eb.Body, []byte(`"run_id":"r-1"`)) {
				t.Errorf("response body does not carry the router's run ID: %.200s", eb.Body)
			}
		})
	}
}

// TestKernelReported: the selected gather kernel is named by `grazelle
// version`, by /v1/stats, and by the record of every run — a routed run's
// record carrying the answering worker's, on the router and on the worker.
func TestKernelReported(t *testing.T) {
	want := vec.Kernel()
	if want != "avx2" && want != "go" {
		t.Fatalf("vec.Kernel() = %q", want)
	}
	if got := versionInfo()["kernel"]; got != want {
		t.Errorf("version reports kernel %q, want %q", got, want)
	}
	_, wURL := newTestServer(t, "worker", grazelle.StoreConfig{}, nil)
	_, rURL := newTestServer(t, "router", grazelle.StoreConfig{}, []string{wURL})
	_, sURL := newTestServer(t, "serve", grazelle.StoreConfig{}, nil)
	kernelAt := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Kernel string `json:"kernel"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
		}
		return doc.Kernel
	}
	for _, base := range []string{sURL, rURL, wURL} {
		if got := kernelAt(base + "/v1/stats"); got != want {
			t.Errorf("%s/v1/stats reports kernel %q, want %q", base, got, want)
		}
	}
	for _, base := range []string{sURL, rURL} {
		resp, raw := post(t, base+"/v1/query", `{"app":"pr","iters":2,"no_cache":true}`)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %.200s", resp.StatusCode, raw)
		}
		id := resp.Header.Get("X-Run-Id")
		records := []string{base + "/v1/runs/" + id}
		if base == rURL {
			records = append(records, wURL+"/v1/runs/"+id)
		}
		for _, rec := range records {
			if got := kernelAt(rec); got != want {
				t.Errorf("%s reports kernel %q, want %q", rec, got, want)
			}
		}
	}
}

// stagesOf fetches one run's record and returns its stage clock, checking the
// stages sum to the wall time within a millisecond.
func stagesOf(t *testing.T, base, runID string) map[string]time.Duration {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + runID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec struct {
		Wall   time.Duration            `json:"wall_ns"`
		Stages map[string]time.Duration `json:"stages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil || resp.StatusCode != 200 {
		t.Fatalf("run record %s: status %d, %v", runID, resp.StatusCode, err)
	}
	var sum time.Duration
	for _, d := range rec.Stages {
		sum += d
	}
	if diff := (sum - rec.Wall).Abs(); diff > time.Millisecond {
		t.Errorf("stages %v sum to %v, wall is %v", rec.Stages, sum, rec.Wall)
	}
	return rec.Stages
}

// TestDelayedStageNamed: a stage slowed by a failpoint is named by
// GET /v1/runs/{id} alone — it is the one stage that took the delay — for the
// acquire of an evicted graph, the engine run, and the router's post; and a
// routed run is on file under the same ID on the worker that answered it.
func TestDelayedStageNamed(t *testing.T) {
	const delay = 40 * time.Millisecond
	_, wURL := newTestServer(t, "worker", grazelle.StoreConfig{}, nil)
	_, rURL := newTestServer(t, "router", grazelle.StoreConfig{}, []string{wURL})
	// Adding "other" under a one-byte budget evicted the idle "default".
	_, sURL := newTestServer(t, "serve", grazelle.StoreConfig{DataDir: t.TempDir(), MemBudgetBytes: 1}, nil, "other")

	for _, tc := range []struct{ site, spec, base, stage string }{
		{"store/rehydrate", "delay:40ms", sURL, "acquire_ns"},
		{"core/chunk", "delay:40ms*1", sURL, "run_ns"},
		{"cluster/run", "delay:40ms", rURL, "post_ns"},
	} {
		t.Run(tc.stage, func(t *testing.T) {
			disarm, err := fault.Enable(tc.site, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, raw := post(t, tc.base+"/v1/query", `{"app":"bfs","root":2,"no_cache":true}`)
			disarm()
			if resp.StatusCode != 200 {
				t.Fatalf("status %d: %.200s", resp.StatusCode, raw)
			}
			id := resp.Header.Get("X-Run-Id")
			for stage, d := range stagesOf(t, tc.base, id) {
				if (d >= delay) != (stage == tc.stage) {
					t.Errorf("%s = %v with %s delayed by %v", stage, d, tc.stage, delay)
				}
			}
			if tc.base != rURL {
				return
			}
			if st := stagesOf(t, wURL, id); st["run_ns"] <= 0 || st["post_ns"] != 0 {
				t.Errorf("worker's record of routed run %s: stages %v", id, st)
			}
			if direct, _ := post(t, wURL+"/v1/query", `{"app":"bfs","root":2,"no_cache":true}`); direct.Header.Get("X-Run-Id") == id {
				t.Errorf("worker issued the router's run ID %s to a direct query", id)
			}
		})
	}
}
