package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	grazelle "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/testgraph"
)

// testGraph is shared across the package's tests: stores are read-only here
// and graph generation dominates setup time.
var (
	graphOnce sync.Once
	testG     *grazelle.Graph
	graphErr  error
)

func sharedGraph(t *testing.T) *grazelle.Graph {
	t.Helper()
	graphOnce.Do(func() {
		c := testgraph.Skewed()
		testG, graphErr = grazelle.NewGraph(c.G.NumVertices, c.G.Edges, c.G.Weighted)
	})
	if graphErr != nil {
		t.Fatal(graphErr)
	}
	return testG
}

// newTestService is a service over a store holding the shared graph as "g".
func newTestService(t *testing.T) *service.Service {
	t.Helper()
	st, err := grazelle.OpenStore(grazelle.StoreConfig{Workers: 2, Options: grazelle.Options{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Add("g", sharedGraph(t)); err != nil {
		t.Fatal(err)
	}
	return service.New(service.Config{Store: st, MaxTimeout: time.Minute, Workers: 2, RunHistory: 16})
}

// newTestWorker is one in-process worker: a real service behind workerMux.
func newTestWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(workerMux(NewWorker(newTestService(t))))
	t.Cleanup(ts.Close)
	return ts
}

// workerMux is the minimal handler set an in-process worker needs: the run
// endpoint plus a readiness probe. The real worker process serves these
// routes from the full serve mux instead.
func workerMux(wk *Worker) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/run", wk.HandleRun)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := wk.svc.Store().Ready(); err != nil {
			writeClusterError(w, http.StatusServiceUnavailable, "unready", err)
			return
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}

// verdictWorker is a worker whose /internal/run always answers with the
// given typed error; every other route is a real worker's.
func verdictWorker(t *testing.T, status int, code string) *httptest.Server {
	t.Helper()
	real := newTestWorker(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/internal/run" {
			writeClusterError(w, status, code, errors.New("refused by the test"))
			return
		}
		real.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// newTestCluster stands up n in-process workers plus a router, and blocks
// until the health loop has every worker in rotation.
func newTestCluster(t *testing.T, n int) *Router {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = newTestWorker(t).URL
	}
	return newTestRouter(t, urls)
}

// newTestRouter is newTestCluster over workers the caller stood up.
func newTestRouter(t *testing.T, urls []string) *Router {
	t.Helper()
	rt := NewRouter(RouterConfig{Workers: urls, HealthInterval: 25 * time.Millisecond})
	t.Cleanup(rt.Close)
	rt.Start()
	waitAvailable(t, rt, len(urls))
	return rt
}

func available(rt *Router) int {
	_, synced := rt.counts()
	return synced
}

func waitAvailable(t *testing.T, rt *Router, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if available(rt) == n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cluster never reached %d available workers: %+v", n, rt.Status().Workers)
}

func clusterSpec(app string, root uint32, values bool) RunSpec {
	g := testG
	return RunSpec{
		Query:    service.Query{Graph: "g", App: app, Iters: 8, Root: root, K: 2, Values: values},
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
	}
}

// specPlacedOn returns a bfs spec the router currently ranks url first for.
func specPlacedOn(t *testing.T, rt *Router, url string) RunSpec {
	t.Helper()
	for root := uint32(0); root < 256; root++ {
		if spec := clusterSpec("bfs", root, false); rt.rank(spec)[0] == url {
			return spec
		}
	}
	t.Fatalf("no bfs root in [0,256) is placed on %s", url)
	return RunSpec{}
}

// runsOn reads one worker's answered-runs count from the status document.
func runsOn(rt *Router, url string) uint64 {
	for _, w := range rt.Status().Workers {
		if w.URL == url {
			return w.Runs
		}
	}
	return 0
}

// requireInRotation fails unless every worker is healthy and synced.
func requireInRotation(t *testing.T, rt *Router) {
	t.Helper()
	for _, w := range rt.Status().Workers {
		if !w.Healthy || !w.Synced {
			t.Errorf("worker taken out of rotation: %+v", w)
		}
	}
}

// perRun matches the two response fields that differ between two runs of
// the same query.
var perRun = regexp.MustCompile(`"run_id":"[^"]*"|"elapsed_ms":[0-9]+`)

// requireBitIdentical compares a routed run's response body with the body a
// local Service.Execute of spec's query returns — the bytes a single process
// would have served — modulo run_id and elapsed_ms, and returns the local
// run's record.
func requireBitIdentical(t *testing.T, res *RunResult, spec RunSpec) obs.RunRecord {
	t.Helper()
	svc := newTestService(t)
	want, _, err := svc.Execute(context.Background(), spec.Query)
	if err != nil {
		t.Fatalf("local %s: %v", spec.App, err)
	}
	if got, want := perRun.ReplaceAll(res.Body, nil), perRun.ReplaceAll(want.Payload, nil); !bytes.Equal(got, want) {
		t.Errorf("routed %s body diverges from the local one:\n%.300s\n%.300s", spec.App, got, want)
	}
	rec, _ := svc.Runs().Get(want.RunID)
	return rec
}

// TestClusterExecuteBitIdentical routes frontier-driven and frontier-blind
// apps over 1- and 2-worker rosters and requires the response body, values
// included, to be a local run's bytes under the router's run ID, with the
// answering worker's engine trace attached.
func TestClusterExecuteBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			rt := newTestCluster(t, workers)
			for _, app := range []string{"pr", "cc", "bfs"} {
				spec := clusterSpec(app, 1, true)
				res, err := rt.Execute(context.Background(), "t-"+app, spec)
				if err != nil {
					t.Fatalf("%s: %v", app, err)
				}
				want := requireBitIdentical(t, res, spec)
				if res.Iterations != want.Iters || res.Mode != want.Mode ||
					res.Trace.Directions != want.Trace.Directions || len(res.Trace.Phases) != len(want.Trace.Phases) {
					t.Errorf("%s record fields: %d iterations, mode %s, directions %q with %d phases; local run %+v",
						app, res.Iterations, res.Mode, res.Trace.Directions, len(res.Trace.Phases), want)
				}
				if !bytes.Contains(res.Body, []byte(`"run_id":"t-`+app+`"`)) {
					t.Errorf("%s: body does not carry the router-issued run ID: %.200s", app, res.Body)
				}
				if runsOn(rt, res.Worker) == 0 {
					t.Errorf("%s: answering worker %q has no run counted", app, res.Worker)
				}
			}
			if st := rt.Status(); st.Runs != 3 || st.Failures != 0 || st.Failovers != 0 {
				t.Errorf("status counters: %+v", st)
			}
		})
	}
}

// TestClusterPlacementStable: while the roster is stable the same query
// lands on the same worker every time, whatever its response shape.
func TestClusterPlacementStable(t *testing.T) {
	rt := newTestCluster(t, 2)
	var first string
	for i := 0; i < 20; i++ {
		res, err := rt.Execute(context.Background(), fmt.Sprint("t-stable-", i), clusterSpec("bfs", 7, i%2 == 0))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Worker
		} else if res.Worker != first {
			t.Fatalf("run %d answered by %s, earlier runs by %s", i, res.Worker, first)
		}
	}
	if got := runsOn(rt, first); got != 20 {
		t.Errorf("worker %s counts %d runs, want 20", first, got)
	}
}

// TestClusterPlacementSpread: distinct queries spread over the roster — 64
// bfs roots reach both of two workers, neither with less than a quarter.
func TestClusterPlacementSpread(t *testing.T) {
	rt := newTestCluster(t, 2)
	for root := uint32(0); root < 64; root++ {
		if _, err := rt.Execute(context.Background(), fmt.Sprint("t-spread-", root), clusterSpec("bfs", root, false)); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range rt.Status().Workers {
		if w.Runs < 16 {
			t.Errorf("worker %s answered %d of 64 runs, want at least 16", w.URL, w.Runs)
		}
	}
}

// TestClusterPlacementMinimalDisruption: losing one of three workers moves
// only the queries it was serving, each to the worker that ranked second.
func TestClusterPlacementMinimalDisruption(t *testing.T) {
	lost := newTestWorker(t)
	rt := newTestRouter(t, []string{newTestWorker(t).URL, lost.URL, newTestWorker(t).URL})
	before := make([][]string, 64)
	for root := range before {
		before[root] = rt.rank(clusterSpec("bfs", uint32(root), false))
	}
	lost.Close()
	waitAvailable(t, rt, 2)
	moved := 0
	for root, was := range before {
		now := rt.rank(clusterSpec("bfs", uint32(root), false))[0]
		want := was[0]
		if want == lost.URL {
			want = was[1]
			moved++
		}
		if now != want {
			t.Errorf("root %d placed on %s after the loss, want %s (ranking before: %v)", root, now, want, was)
		}
	}
	if moved == 0 || moved == len(before) {
		t.Errorf("lost worker was serving %d of %d specs", moved, len(before))
	}
}

// TestClusterFailpointFailover arms the cluster/run failpoint for one shot:
// the post to the chosen worker fails like a transport error, the router
// retries on the next replica, and the answer is bit-identical.
func TestClusterFailpointFailover(t *testing.T) {
	rt := newTestCluster(t, 2)
	disarm, err := fault.Enable("cluster/run", "error*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	spec := clusterSpec("bfs", 1, true)
	chosen := rt.rank(spec)
	res, err := rt.Execute(context.Background(), "t-fp", spec)
	if err != nil {
		t.Fatalf("failover did not recover: %v", err)
	}
	requireBitIdentical(t, res, spec)
	if res.Worker != chosen[1] {
		t.Errorf("answered by %s, want the second in rank %v", res.Worker, chosen)
	}
	if st := rt.Status(); st.Failovers != 1 || st.Failures != 0 {
		t.Errorf("status counters: %+v", st)
	}
}

// TestClusterFailpointExhausted arms the failpoint permanently: the run and
// its one retry both fail, and the caller gets the typed unavailable error
// carrying the last worker's failure.
func TestClusterFailpointExhausted(t *testing.T) {
	rt := newTestCluster(t, 3)
	disarm, err := fault.Enable("cluster/run", "error")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	_, err = rt.Execute(context.Background(), "t-fpx", clusterSpec("bfs", 1, false))
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("want UnavailableError after exhausted failover, got %v", err)
	}
	var pe *PeerError
	if !errors.As(err, &pe) || !errors.Is(err, fault.ErrInjected) {
		t.Errorf("cause is not the injected peer error: %v", err)
	}
	if st := rt.Status(); st.Failovers != 1 || st.Failures != 1 {
		t.Errorf("one retry, one failure expected: %+v", st)
	}
}

// TestClusterRunVerdictIsFinal: an engine error from the chosen worker would
// repeat on an identical replica, so it is returned as is — not retried, and
// nobody leaves the rotation.
func TestClusterRunVerdictIsFinal(t *testing.T) {
	good := newTestWorker(t)
	bad := verdictWorker(t, http.StatusInternalServerError, "run")
	rt := newTestRouter(t, []string{good.URL, bad.URL})

	_, err := rt.Execute(context.Background(), "t-final", specPlacedOn(t, rt, bad.URL))
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Worker != bad.URL || pe.Code != "run" {
		t.Fatalf("want the chosen worker's run verdict, got %v", err)
	}
	var ue *UnavailableError
	if errors.As(err, &ue) {
		t.Errorf("run verdict wrapped as unavailable: %v", err)
	}
	if st := rt.Status(); st.Failovers != 0 || st.Failures != 1 || runsOn(rt, good.URL) != 0 {
		t.Errorf("run verdict was retried: %+v", st)
	}
	requireInRotation(t, rt)
}

// TestClusterOverloadRetried: a 429 from the chosen worker says that one
// replica is busy, not that the query is bad — the other answers, and the
// busy one stays in rotation.
func TestClusterOverloadRetried(t *testing.T) {
	good := newTestWorker(t)
	busy := verdictWorker(t, http.StatusTooManyRequests, "overloaded")
	rt := newTestRouter(t, []string{good.URL, busy.URL})

	res, err := rt.Execute(context.Background(), "t-busy", specPlacedOn(t, rt, busy.URL))
	if err != nil {
		t.Fatalf("overload was not retried: %v", err)
	}
	if res.Worker != good.URL {
		t.Errorf("answered by %s, want %s", res.Worker, good.URL)
	}
	if st := rt.Status(); st.Failovers != 1 || st.Failures != 0 {
		t.Errorf("status counters: %+v", st)
	}
	requireInRotation(t, rt)
}

// TestClusterStaleReplicaPulled: a replica that refuses the run as
// out_of_sync leaves the rotation for resync and the other one answers.
func TestClusterStaleReplicaPulled(t *testing.T) {
	good := newTestWorker(t)
	stale := verdictWorker(t, http.StatusConflict, "out_of_sync")
	rt := NewRouter(RouterConfig{Workers: []string{good.URL, stale.URL}, HealthInterval: time.Hour})
	t.Cleanup(rt.Close)
	rt.healthPass() // one pass by hand: nothing may resync the stale worker behind the test's back

	res, err := rt.Execute(context.Background(), "t-stale", specPlacedOn(t, rt, stale.URL))
	if err != nil || res.Worker != good.URL {
		t.Fatalf("want an answer from %s, got %+v, %v", good.URL, res, err)
	}
	for _, w := range rt.Status().Workers {
		if w.URL == stale.URL && (w.Synced || !w.Healthy || w.LastError == "") {
			t.Errorf("stale worker not pulled for resync: %+v", w)
		}
	}
}

// TestClusterNoWorkers: a roster that never becomes healthy yields the
// typed unavailable error immediately.
func TestClusterNoWorkers(t *testing.T) {
	rt := NewRouter(RouterConfig{Workers: []string{"http://127.0.0.1:1"}})
	defer rt.Close()
	_, err := rt.Execute(context.Background(), "t-none", clusterSpec("pr", 1, false))
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("want UnavailableError, got %v", err)
	}
}

// TestClusterContextCancel: a cancelled caller context fails the run with a
// context error and without failover.
func TestClusterContextCancel(t *testing.T) {
	rt := newTestCluster(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rt.Execute(ctx, "t-cancel", clusterSpec("bfs", 1, false))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want a context error, got %v", err)
	}
	if st := rt.Status(); st.Failovers != 0 {
		t.Errorf("cancelled run triggered failover: %+v", st)
	}
	requireInRotation(t, rt)
}

// TestWorkerOutOfSync: a run request whose expected graph shape disagrees
// with the replica is refused with the out_of_sync code — the router's
// signal to pull the replica for resync rather than serve a wrong answer.
func TestWorkerOutOfSync(t *testing.T) {
	ts := newTestWorker(t)
	spec := clusterSpec("pr", 1, false)
	spec.Vertices++
	body, _ := json.Marshal(RunRequest{RunID: "t-sync", RunSpec: spec})
	resp, err := http.Post(ts.URL+"/internal/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusConflict || eb.Code != "out_of_sync" {
		t.Fatalf("status %d code %q, want 409 out_of_sync", resp.StatusCode, eb.Code)
	}
}

// TestWorkerUnknownGraph maps to not_found, the resync-this-replica signal.
func TestWorkerUnknownGraph(t *testing.T) {
	ts := newTestWorker(t)
	body, _ := json.Marshal(RunRequest{RunID: "t-404", RunSpec: RunSpec{Query: service.Query{Graph: "nope", App: "pr"}}})
	resp, err := http.Post(ts.URL+"/internal/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusNotFound || eb.Code != "not_found" {
		t.Fatalf("status %d code %q, want 404 not_found", resp.StatusCode, eb.Code)
	}
}

// TestRouterResync: a router over one real serve-shaped worker pushes its
// catalog (graph add + retained mutation batch) through the worker's public
// API before routing to it.
func TestRouterResync(t *testing.T) {
	// A minimal stand-in for the worker's public surface: records what the
	// router replays.
	var mu sync.Mutex
	var adds, batches []string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		var spec GraphSpec
		json.NewDecoder(r.Body).Decode(&spec)
		mu.Lock()
		adds = append(adds, spec.Name)
		mu.Unlock()
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("POST /v1/graphs/{name}/edges", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		batches = append(batches, r.PathValue("name"))
		mu.Unlock()
		w.Write([]byte("{}"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rt := NewRouter(RouterConfig{Workers: []string{ts.URL}, HealthInterval: 20 * time.Millisecond})
	defer rt.Close()
	rt.RecordGraph(GraphSpec{Name: "g", Dataset: "C", Scale: 0.25})
	rt.EdgesApplied("g", []grazelle.EdgeOp{{Src: 1, Dst: 2, Weight: 1}})
	rt.Start()
	waitAvailable(t, rt, 1)

	mu.Lock()
	defer mu.Unlock()
	if len(adds) != 1 || adds[0] != "g" {
		t.Errorf("replayed adds %v, want [g]", adds)
	}
	if len(batches) != 1 || batches[0] != "g" {
		t.Errorf("replayed batches %v, want [g]", batches)
	}
}

// TestRouterBroadcastDesync: a worker that refuses a broadcast drops out of
// rotation until resync repairs it.
func TestRouterBroadcastDesync(t *testing.T) {
	var refuse sync.Map
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		if _, bad := refuse.Load("on"); bad {
			http.Error(w, `{"error":"disk full"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("POST /v1/graphs/{name}/edges", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("{}")) })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rt := NewRouter(RouterConfig{Workers: []string{ts.URL}, HealthInterval: 20 * time.Millisecond})
	defer rt.Close()
	rt.Start()
	waitAvailable(t, rt, 1)

	refuse.Store("on", struct{}{})
	rt.GraphAdded(GraphSpec{Name: "g2", Dataset: "C", Scale: 0.1})
	if available(rt) != 0 {
		t.Fatalf("worker still in rotation after refused broadcast")
	}
	refuse.Delete("on")
	waitAvailable(t, rt, 1) // resync repairs it
}

// TestRouterGraphDeleted: a delete is broadcast to in-sync workers; a worker
// that never had the graph (404) is already in the goal state, one that
// fails the delete drops out until resync repairs it.
func TestRouterGraphDeleted(t *testing.T) {
	var mu sync.Mutex
	var deleted []string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("{}")) })
	mux.HandleFunc("DELETE /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		mu.Lock()
		deleted = append(deleted, name)
		mu.Unlock()
		switch name {
		case "never-had":
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
		case "stuck":
			http.Error(w, `{"error":"busy"}`, http.StatusInternalServerError)
		default:
			w.Write([]byte("{}"))
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rt := NewRouter(RouterConfig{Workers: []string{ts.URL}, HealthInterval: 20 * time.Millisecond})
	defer rt.Close()
	rt.RecordGraph(GraphSpec{Name: "g", Dataset: "C", Scale: 0.25})
	rt.Start()
	waitAvailable(t, rt, 1)

	if rt.LockGraph("g") != rt.LockGraph("g") || rt.LockGraph("g") == rt.LockGraph("other") {
		t.Error("LockGraph must return one lock per graph name")
	}
	rt.GraphDeleted("g")
	rt.GraphDeleted("never-had")
	if available(rt) != 1 {
		t.Fatalf("worker left the rotation after clean deletes: %+v", rt.Status().Workers)
	}
	rt.GraphDeleted("stuck")
	if available(rt) != 0 {
		t.Fatal("worker still in rotation after a failed delete broadcast")
	}
	waitAvailable(t, rt, 1) // the catalog is empty now, so resync has nothing to replay

	mu.Lock()
	defer mu.Unlock()
	if strings.Join(deleted, ",") != "g,never-had,stuck" {
		t.Errorf("broadcast deletes %v, want [g never-had stuck]", deleted)
	}
}
