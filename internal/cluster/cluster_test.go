package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	grazelle "repro"
	"repro/internal/fault"
	"repro/internal/obs"
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
	graphOnce.Do(func() { testG, graphErr = grazelle.GenerateDataset("C", 0.25) })
	if graphErr != nil {
		t.Fatal(graphErr)
	}
	return testG
}

// testWorker is one in-process worker: a store holding the shared graph as
// "g" behind the worker's private mux.
func newTestWorker(t *testing.T) (*Worker, *httptest.Server) {
	t.Helper()
	st, err := grazelle.OpenStore(grazelle.StoreConfig{Workers: 2, Options: grazelle.Options{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Add("g", sharedGraph(t)); err != nil {
		t.Fatal(err)
	}
	wk := NewWorker(st, 2, &obs.Counter{})
	ts := httptest.NewServer(wk.Mux())
	t.Cleanup(ts.Close)
	return wk, ts
}

// newTestCluster stands up n in-process workers plus a router whose exchange
// hub is served over HTTP, and blocks until the health loop has every worker
// in rotation.
func newTestCluster(t *testing.T, n, partitions int) *Router {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		_, ts := newTestWorker(t)
		urls[i] = ts.URL
	}
	return newTestRouter(t, urls, partitions)
}

// newTestRouter is newTestCluster over workers the caller stood up.
func newTestRouter(t *testing.T, urls []string, partitions int) *Router {
	t.Helper()
	rt := NewRouter(RouterConfig{
		Workers:        urls,
		Partitions:     partitions,
		HealthInterval: 25 * time.Millisecond,
		RoundTimeout:   10 * time.Second,
	})
	t.Cleanup(rt.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/exchange", rt.HandleExchange)
	hts := httptest.NewServer(mux)
	t.Cleanup(hts.Close)
	rt.SetExchangeURL(hts.URL + "/internal/exchange")
	rt.Start()
	waitAvailable(t, rt, len(urls))
	return rt
}

func waitAvailable(t *testing.T, rt *Router, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(rt.available()) >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cluster never reached %d available workers: %+v", n, rt.Status().Workers)
}

func clusterSpec(app string, parts int, values bool) RunSpec {
	g := testG
	return RunSpec{
		Graph:      "g",
		App:        app,
		Iters:      8,
		Root:       1,
		K:          2,
		Partitions: parts,
		Values:     values,
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
	}
}

// localRun executes the same query on a plain partitioned engine — the
// bit-identity reference the cluster result must match.
func localRun(t *testing.T, app string, parts int) *grazelle.AppResult {
	t.Helper()
	eng := grazelle.NewEngine(sharedGraph(t), grazelle.Options{Workers: 2, Partitions: parts, Trace: true})
	defer eng.Close()
	res, err := eng.Run(context.Background(), app, grazelle.Params{Iters: 8, Root: 1, K: 2})
	if err != nil {
		t.Fatalf("local %s: %v", app, err)
	}
	return res
}

// TestClusterExecuteBitIdentical scatter-gathers frontier-driven and
// frontier-blind apps over 1- and 2-worker rosters at 2 and 4 partitions and
// requires every summary statistic and the full value vector to be
// byte-identical to a local partitioned run.
func TestClusterExecuteBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, parts := range []int{2, 4} {
			t.Run(fmt.Sprintf("w%dp%d", workers, parts), func(t *testing.T) {
				rt := newTestCluster(t, workers, parts)
				for _, app := range []string{"pr", "cc", "bfs"} {
					res, err := rt.Execute(context.Background(), "t-"+app, clusterSpec(app, parts, true))
					if err != nil {
						t.Fatalf("%s: %v", app, err)
					}
					want := localRun(t, app, parts)
					if res.Iterations != want.Stats.Iterations || res.Partitions != parts {
						t.Errorf("%s: iterations %d partitions %d, want %d/%d",
							app, res.Iterations, res.Partitions, want.Stats.Iterations, parts)
					}
					for _, st := range want.Summary() {
						wantRaw, _ := json.Marshal(st.Value)
						if got, ok := res.Summary[st.Key]; !ok || string(got) != string(wantRaw) {
							t.Errorf("%s summary %s = %s, want %s", app, st.Key, got, wantRaw)
						}
					}
					wantVals, _ := json.Marshal(want.Values())
					if string(res.Values) != string(wantVals) {
						t.Errorf("%s values diverge (%d vs %d bytes)", app, len(res.Values), len(wantVals))
					}
					if res.ExchangeBytes != want.Stats.ExchangeBytes {
						t.Errorf("%s exchange bytes %d, want %d", app, res.ExchangeBytes, want.Stats.ExchangeBytes)
					}
					if len(res.Workers) != workers {
						t.Errorf("%s ran on %d workers, want %d", app, len(res.Workers), workers)
					}
					if len(res.PartBytes) != parts {
						t.Errorf("%s PartBytes len %d, want %d", app, len(res.PartBytes), parts)
					}
				}
			})
		}
	}
}

// TestClusterAccounting checks the hub's per-partition byte totals agree
// with the engine's own exchange accounting for a frontier-driven app.
func TestClusterAccounting(t *testing.T) {
	rt := newTestCluster(t, 2, 2)
	res, err := rt.Execute(context.Background(), "t-acct", clusterSpec("bfs", 2, false))
	if err != nil {
		t.Fatal(err)
	}
	var hubTotal int64
	for _, b := range res.PartBytes {
		hubTotal += b
	}
	if hubTotal == 0 {
		t.Fatal("bfs moved no bytes through the hub")
	}
	if hubTotal != res.ExchangeBytes {
		t.Errorf("hub accounted %d bytes, engine charged %d", hubTotal, res.ExchangeBytes)
	}
	st := rt.Status()
	if st.Runs == 0 || st.ExchangeRounds == 0 {
		t.Errorf("status counters not advanced: %+v", st)
	}
	var peerIn uint64
	for _, w := range st.Workers {
		peerIn += w.BytesIn
	}
	if peerIn == 0 {
		t.Error("per-peer inbound exchange bytes not accounted")
	}
}

// TestClusterFailpointFailover arms the cluster/exchange failpoint for one
// shot: the first attempt dies at the barrier with a typed exchange error,
// the router fails over, and the retry succeeds bit-identically.
func TestClusterFailpointFailover(t *testing.T) {
	if !fault.Available() {
		t.Skip("failpoints compiled out")
	}
	rt := newTestCluster(t, 2, 2)
	disarm, err := fault.Enable("cluster/exchange", "error*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	res, err := rt.Execute(context.Background(), "t-fp", clusterSpec("bfs", 2, false))
	if err != nil {
		t.Fatalf("failover did not recover: %v", err)
	}
	want := localRun(t, "bfs", 2)
	if res.Iterations != want.Stats.Iterations {
		t.Errorf("iterations %d after failover, want %d", res.Iterations, want.Stats.Iterations)
	}
	if st := rt.Status(); st.Failovers == 0 {
		t.Errorf("failover not counted: %+v", st)
	}
}

// TestClusterFailpointExhausted arms the failpoint permanently: both the
// run and its failover die at the barrier, and the caller gets the typed
// unavailable error, not a hang.
func TestClusterFailpointExhausted(t *testing.T) {
	if !fault.Available() {
		t.Skip("failpoints compiled out")
	}
	rt := newTestCluster(t, 2, 2)
	disarm, err := fault.Enable("cluster/exchange", "error")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	_, err = rt.Execute(context.Background(), "t-fpx", clusterSpec("bfs", 2, false))
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("want UnavailableError after exhausted failover, got %v", err)
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Code != "exchange" {
		t.Errorf("cause is not an exchange-coded peer error: %v", err)
	}
}

// TestClusterOneWorkerFailureSparesTheRest: one replica refuses the run with
// a deterministic verdict while its peer waits at the barrier. Tearing the
// run down cancels the peer's post; that self-inflicted transport error must
// neither outrank the real failure nor take the healthy replica out of
// rotation.
func TestClusterOneWorkerFailureSparesTheRest(t *testing.T) {
	_, good := newTestWorker(t)
	wk, _ := newTestWorker(t)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/internal/run" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(errorBody{Error: "engine refused", Code: "run"})
			return
		}
		wk.Mux().ServeHTTP(w, r)
	}))
	t.Cleanup(bad.Close)
	rt := newTestRouter(t, []string{good.URL, bad.URL}, 2)

	_, err := rt.Execute(context.Background(), "t-spare", clusterSpec("bfs", 2, false))
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Worker != bad.URL || pe.Code != "run" {
		t.Fatalf("want the failing worker's run verdict, got %v", err)
	}
	for _, w := range rt.Status().Workers {
		if w.URL == good.URL && !(w.Healthy && w.Synced) {
			t.Fatalf("healthy worker taken out of rotation by the teardown: %+v", w)
		}
	}
}

// TestClusterFailpointDelay injects a barrier delay shorter than the round
// timeout: the run must simply ride it out and still complete correctly.
func TestClusterFailpointDelay(t *testing.T) {
	if !fault.Available() {
		t.Skip("failpoints compiled out")
	}
	rt := newTestCluster(t, 2, 2)
	disarm, err := fault.Enable("cluster/exchange", "delay:50ms*2")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	res, err := rt.Execute(context.Background(), "t-delay", clusterSpec("bfs", 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if want := localRun(t, "bfs", 2); res.Iterations != want.Stats.Iterations {
		t.Errorf("iterations %d under delay, want %d", res.Iterations, want.Stats.Iterations)
	}
}

// TestClusterNoWorkers: a roster that never becomes healthy yields the
// typed unavailable error immediately.
func TestClusterNoWorkers(t *testing.T) {
	rt := NewRouter(RouterConfig{Workers: []string{"http://127.0.0.1:1"}, Partitions: 2})
	defer rt.Close()
	_, err := rt.Execute(context.Background(), "t-none", clusterSpec("pr", 2, false))
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("want UnavailableError, got %v", err)
	}
}

// TestClusterContextCancel: a cancelled caller context fails the run with a
// context error and without failover.
func TestClusterContextCancel(t *testing.T) {
	rt := newTestCluster(t, 2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rt.Execute(ctx, "t-cancel", clusterSpec("bfs", 2, false))
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if st := rt.Status(); st.Failovers != 0 {
		t.Errorf("cancelled run triggered failover: %+v", st)
	}
}

// TestWorkerOutOfSync: a run request whose expected graph shape disagrees
// with the replica is refused with the out_of_sync code — the router's
// signal to pull the replica for resync rather than serve a wrong answer.
func TestWorkerOutOfSync(t *testing.T) {
	_, ts := newTestWorker(t)
	spec := clusterSpec("pr", 2, false)
	body, _ := json.Marshal(RunRequest{
		RunID: "t-sync", Worker: ts.URL, Graph: spec.Graph, App: spec.App,
		Iters: spec.Iters, Partitions: 2, Owned: []int{0, 1},
		Vertices: spec.Vertices + 1, Edges: spec.Edges,
	})
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
	_, ts := newTestWorker(t)
	body, _ := json.Marshal(RunRequest{RunID: "t-404", Worker: ts.URL, Graph: "nope", App: "pr", Partitions: 1, Owned: []int{0}})
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

// --- Hub unit tests ---

func hubPost(worker string, iter int, parts map[int][]uint64, layout map[int]int) *ExchangePost {
	p := &ExchangePost{RunID: "r", Worker: worker, Iter: iter}
	for part, words := range parts {
		p.Segments = append(p.Segments, Segment{Part: part, WordLo: layout[part], Words: wordsToBytes(words)})
	}
	return p
}

// TestHubMergeAndRetry drives one two-worker round by hand: the merged
// frontier, active count, per-partition bytes, and the idempotent cached
// reply for a retried post.
func TestHubMergeAndRetry(t *testing.T) {
	h := NewHub()
	h.Register("r", map[string][]int{"a": {0}, "b": {1}}, 2, 4)
	defer h.Unregister("r")
	layout := map[int]int{0: 0, 1: 2} // PartitionEven(4,2): [0,2) and [2,4)

	var replyA *ExchangeReply
	done := make(chan error, 1)
	go func() {
		var err error
		replyA, err = h.Post(context.Background(), hubPost("a", 0, map[int][]uint64{0: {1, 2}}, layout))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	replyB, err := h.Post(context.Background(), hubPost("b", 0, map[int][]uint64{1: {4, 8}}, layout))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if replyA.Active != 4 {
		t.Errorf("active = %d, want 4", replyA.Active)
	}
	want := []uint64{1, 2, 4, 8}
	got := bytesToWords(replyB.Frontier)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged frontier %v, want %v", got, want)
		}
	}
	if replyA.Bytes[0] != 16 || replyA.Bytes[1] != 16 {
		t.Errorf("per-partition bytes %v, want [16 16]", replyA.Bytes)
	}
	// Retry of the completed round returns the cached reply.
	again, err := h.Post(context.Background(), hubPost("a", 0, map[int][]uint64{0: {1, 2}}, layout))
	if err != nil || again.Iter != 0 || again.Active != 4 {
		t.Fatalf("retry: %v %+v", err, again)
	}
	if h.Rounds("r") != 1 {
		t.Errorf("rounds = %d, want 1", h.Rounds("r"))
	}
	if pb := h.PartBytes("r"); pb[0] != 16 || pb[1] != 16 {
		t.Errorf("cumulative PartBytes %v", pb)
	}
}

// TestHubWedgedRound: a round that never completes aborts at RoundTimeout
// with the missing worker recorded as the laggard.
func TestHubWedgedRound(t *testing.T) {
	h := NewHub()
	h.RoundTimeout = 50 * time.Millisecond
	h.Register("r", map[string][]int{"a": {0}, "b": {1}}, 2, 4)
	defer h.Unregister("r")
	layout := map[int]int{0: 0, 1: 2}
	_, err := h.Post(context.Background(), hubPost("a", 0, map[int][]uint64{0: {1, 2}}, layout))
	var rae *RunAbortedError
	if !errors.As(err, &rae) {
		t.Fatalf("want RunAbortedError from wedged round, got %v", err)
	}
	lag := h.Laggards("r")
	if len(lag) != 1 || lag[0] != "b" {
		t.Errorf("laggards = %v, want [b]", lag)
	}
}

// TestHubProtocolViolations: posts from unenlisted workers, for the wrong
// iteration, or with the wrong geometry abort the run rather than corrupt
// the frontier.
func TestHubProtocolViolations(t *testing.T) {
	layout := map[int]int{0: 0, 1: 2}
	t.Run("unenlisted", func(t *testing.T) {
		h := NewHub()
		h.Register("r", map[string][]int{"a": {0, 1}}, 2, 4)
		defer h.Unregister("r")
		_, err := h.Post(context.Background(), hubPost("z", 0, map[int][]uint64{0: {1, 2}}, layout))
		var rae *RunAbortedError
		if !errors.As(err, &rae) {
			t.Fatalf("unenlisted post accepted: %v", err)
		}
	})
	t.Run("wrong-iter", func(t *testing.T) {
		h := NewHub()
		h.Register("r", map[string][]int{"a": {0, 1}}, 2, 4)
		defer h.Unregister("r")
		_, err := h.Post(context.Background(), hubPost("a", 3, map[int][]uint64{0: {1, 2}, 1: {0, 0}}, layout))
		var rae *RunAbortedError
		if !errors.As(err, &rae) {
			t.Fatalf("future-iteration post accepted: %v", err)
		}
	})
	t.Run("bad-geometry", func(t *testing.T) {
		h := NewHub()
		h.Register("r", map[string][]int{"a": {0, 1}}, 2, 4)
		defer h.Unregister("r")
		_, err := h.Post(context.Background(), hubPost("a", 0, map[int][]uint64{0: {1}, 1: {0, 0}}, layout))
		var rae *RunAbortedError
		if !errors.As(err, &rae) {
			t.Fatalf("short segment accepted: %v", err)
		}
	})
	t.Run("unknown-run", func(t *testing.T) {
		h := NewHub()
		_, err := h.Post(context.Background(), hubPost("a", 0, map[int][]uint64{0: {1, 2}}, layout))
		if !errors.Is(err, ErrUnknownRun) {
			t.Fatalf("want ErrUnknownRun, got %v", err)
		}
	})
}

// TestNetExchangeDivergence: a merged frontier that contradicts the local
// one on a non-owned word is a replica-drift bug and must fail the run.
func TestNetExchangeDivergence(t *testing.T) {
	h := NewHub()
	h.Register("r", map[string][]int{"w": {0}, "peer": {1}}, 2, 2)
	defer h.Unregister("r")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/exchange", func(w http.ResponseWriter, req *http.Request) {
		var p ExchangePost
		json.NewDecoder(req.Body).Decode(&p)
		reply, err := h.Post(req.Context(), &p)
		if err != nil {
			writeClusterError(w, http.StatusConflict, "aborted", err)
			return
		}
		json.NewEncoder(w).Encode(reply)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// The peer posts a word that differs from what our worker computed
	// locally for the partition it does not own.
	go h.Post(context.Background(), &ExchangePost{RunID: "r", Worker: "peer", Iter: 0,
		Segments: []Segment{{Part: 1, WordLo: 1, Words: wordsToBytes([]uint64{0xff})}}})

	ex := &NetExchange{Client: ts.Client(), URL: ts.URL + "/internal/exchange", RunID: "r", Worker: "w", Owned: map[int]bool{0: true}}
	deltas := []grazelle.FrontierDelta{
		{Part: 0, WordLo: 0, Words: []uint64{1}},
		{Part: 1, WordLo: 1, Words: []uint64{0xaa}}, // local disagreement
	}
	_, err := ex.Exchange(context.Background(), deltas)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want DivergenceError, got %v", err)
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

	rt := NewRouter(RouterConfig{Workers: []string{ts.URL}, Partitions: 2, HealthInterval: 20 * time.Millisecond})
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

	rt := NewRouter(RouterConfig{Workers: []string{ts.URL}, Partitions: 2, HealthInterval: 20 * time.Millisecond})
	defer rt.Close()
	rt.Start()
	waitAvailable(t, rt, 1)

	refuse.Store("on", struct{}{})
	rt.GraphAdded(GraphSpec{Name: "g2", Dataset: "C", Scale: 0.1})
	if avail := rt.available(); len(avail) != 0 {
		t.Fatalf("worker still in rotation after refused broadcast")
	}
	refuse.Delete("on")
	waitAvailable(t, rt, 1) // resync repairs it
}
