package grazelle

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// End-to-end tests for the cluster tier: a `grazelle router` process sending
// each query to one of its `grazelle worker` processes, compared
// byte-for-byte against a single-process `grazelle serve` on the same graph.

// startRole launches one grazelle process in the given serve-family role and
// returns its announced base URL. Callers own shutdown via the returned cmd.
func startRole(t *testing.T, role string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	bin := filepath.Join(cliBinaries(t), "grazelle")
	args := append([]string{role, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			// Keep draining the pipe so the child never blocks on a full
			// stdout buffer while logging requests.
			go func() {
				for sc.Scan() {
				}
			}()
			return strings.TrimSpace(line[i:]), cmd
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("%s never announced its address: %v", role, sc.Err())
	return "", nil
}

func stopCmd(cmd *exec.Cmd) {
	cmd.Process.Kill()
	cmd.Wait()
}

// clusterQueryNorm strips the per-process response fields (run_id, elapsed
// wall time) so payloads from different processes can be compared
// byte-for-byte.
var clusterNormRE = regexp.MustCompile(`"run_id":"[^"]*"|"elapsed_ms":[0-9]+`)

func normalizePayload(b []byte) string {
	return clusterNormRE.ReplaceAllStringFunc(string(b), func(m string) string {
		if strings.HasPrefix(m, `"run_id"`) {
			return `"run_id":"X"`
		}
		return `"elapsed_ms":0`
	})
}

func clusterQuery(t *testing.T, client *http.Client, base, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s/v1/query: %v", base, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// nineApps is one query per registered application, covering rooted,
// weighted, thresholded, and frontier-blind programs. The graph is weighted
// so wpr and sssp run too.
var nineApps = []string{
	`{"app":"pr","iters":8,"values":true}`,
	`{"app":"wpr","iters":8,"values":true}`,
	`{"app":"cc","values":true}`,
	`{"app":"bfs","root":1,"values":true}`,
	`{"app":"sssp","root":1,"values":true}`,
	`{"app":"tc","values":true}`,
	`{"app":"kcore","k":2,"values":true}`,
	`{"app":"lp","iters":4,"values":true}`,
	`{"app":"ppr","root":2,"iters":6,"values":true}`,
}

// weightedPair generates a small weighted graph file pair shared by the
// router, its workers (via resync), and the single-process reference.
func weightedPair(t *testing.T) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "mesh")
	if out, err := runCLI(t, "gengraph", "-kind", "mesh", "-rows", "12", "-cols", "12", "-weighted", "-o", base); err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}
	return base
}

// waitClusterReady polls GET /v1/cluster until the roster has n healthy,
// synced workers — resync must have pushed the preloaded graph by then.
func waitClusterReady(t *testing.T, client *http.Client, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/v1/cluster")
		if err == nil {
			var st struct {
				Workers []struct {
					Healthy bool `json:"healthy"`
					Synced  bool `json:"synced"`
				} `json:"workers"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil {
				ready := 0
				for _, w := range st.Workers {
					if w.Healthy && w.Synced {
						ready++
					}
				}
				if ready >= n {
					return
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("cluster at %s never reached %d ready workers", base, n)
}

// mutateEdges posts one small edge batch to base's default graph.
func mutateEdges(t *testing.T, client *http.Client, base string) {
	t.Helper()
	resp, err := client.Post(base+"/v1/graphs/default/edges", "application/json",
		strings.NewReader(`{"ops":[{"src":0,"dst":40},{"src":40,"dst":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("mutation on %s: status %d", base, resp.StatusCode)
	}
}

// TestClusterServeByteIdentity runs all nine applications through routers
// over 1-, 2-, and 4-worker rosters, before and after a mutation through the
// router, and requires every response to be byte-identical (modulo run_id and
// wall time) to a single-process serve.
func TestClusterServeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster matrix")
	}
	base := weightedPair(t)
	client := &http.Client{Timeout: 60 * time.Second}

	// answers queries all nine apps, mutates, and queries them again.
	answers := func(t *testing.T, url string) []string {
		t.Helper()
		var out []string
		for _, phase := range []string{"before", "after"} {
			for _, q := range nineApps {
				code, payload := clusterQuery(t, client, url, q)
				if code != 200 {
					t.Fatalf("%s the mutation, %s: status %d: %s", phase, q, code, payload)
				}
				out = append(out, normalizePayload(payload))
			}
			if phase == "before" {
				mutateEdges(t, client, url)
			}
		}
		return out
	}

	t.Run("workers", func(t *testing.T) {
		// A routed run is always a cold run (the router's workers keep no
		// result to warm-start from), so the reference recomputes in full
		// after the mutation too.
		sURL, sCmd := startServe(t, "-i", base, "-incremental-threshold", "0")
		reference := answers(t, sURL)
		stopCmd(sCmd)

		// Worker pool shared by every roster size: each router's resync
		// re-adds the graph, which resets the previous router's mutation.
		workerURLs := make([]string, 4)
		for i := range workerURLs {
			u, cmd := startRole(t, "worker")
			workerURLs[i] = u
			t.Cleanup(func() { stopCmd(cmd) })
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
				rURL, rCmd := startRole(t, "router",
					"-workers", strings.Join(workerURLs[:workers], ","), "-i", base,
					"-health-interval", "100ms")
				defer stopCmd(rCmd)
				waitClusterReady(t, client, rURL, workers)
				for i, got := range answers(t, rURL) {
					if got != reference[i] {
						t.Errorf("%s (answer %d): cluster response diverges from single-process\n got: %.300s\nwant: %.300s",
							nineApps[i%len(nineApps)], i, got, reference[i])
					}
				}
			})
		}
	})
}

// TestClusterMutationVisibility applies a streaming edge mutation through
// the router and requires the next cluster query to reflect it — the
// broadcast + catalog path keeping replicas in lockstep — and to stay
// byte-identical to a single-process serve given the same mutation.
func TestClusterMutationVisibility(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster test")
	}
	client := &http.Client{Timeout: 60 * time.Second}
	w1, c1 := startRole(t, "worker")
	defer stopCmd(c1)
	w2, c2 := startRole(t, "worker")
	defer stopCmd(c2)
	rURL, rc := startRole(t, "router", "-workers", w1+","+w2, "-d", "C", "-scale", "0.25", "-health-interval", "100ms")
	defer stopCmd(rc)
	sURL, sc := startServe(t, "-d", "C", "-scale", "0.25")
	defer stopCmd(sc)
	waitClusterReady(t, client, rURL, 2)

	mutateEdges(t, client, rURL)
	mutateEdges(t, client, sURL)

	q := `{"app":"cc","values":true}`
	code, clPayload := clusterQuery(t, client, rURL, q)
	if code != 200 {
		t.Fatalf("cluster cc after mutation: status %d: %s", code, clPayload)
	}
	code, spPayload := clusterQuery(t, client, sURL, q)
	if code != 200 {
		t.Fatalf("single cc after mutation: status %d: %s", code, spPayload)
	}
	if normalizePayload(clPayload) != normalizePayload(spPayload) {
		t.Errorf("post-mutation responses diverge:\n got: %.300s\nwant: %.300s", clPayload, spPayload)
	}
}

// TestClusterWorkerKillDrill SIGKILLs one worker and requires the router to
// degrade exactly as specified: every in-flight or subsequent query either
// fails over to the survivor (200) or returns a typed 503/502 — never a hang
// or a silent wrong answer — admission slots all drain, and service fully
// recovers on the surviving replica.
func TestClusterWorkerKillDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster test")
	}
	client := &http.Client{Timeout: 60 * time.Second}
	w1, c1 := startRole(t, "worker")
	defer stopCmd(c1)
	w2, c2 := startRole(t, "worker")
	rURL, rc := startRole(t, "router", "-workers", w1+","+w2, "-d", "C", "-scale", "0.25",
		"-health-interval", "100ms")
	defer stopCmd(rc)
	waitClusterReady(t, client, rURL, 2)

	// Warm query while both workers are up.
	if code, payload := clusterQuery(t, client, rURL, `{"app":"bfs","root":1}`); code != 200 {
		t.Fatalf("warm bfs: status %d: %s", code, payload)
	}

	// Kill one worker; the very next queries race the health loop. Twenty
	// distinct roots are placed on both workers: one placed on the survivor
	// never notices, one placed on the dead worker must either fail over
	// (200) or surface a typed retryable error.
	c2.Process.Kill()
	c2.Wait()
	recovered := false
	for i := 0; i < 20; i++ {
		code, payload := clusterQuery(t, client, rURL, fmt.Sprintf(`{"app":"bfs","root":%d,"no_cache":true}`, i+2))
		switch code {
		case 200:
			recovered = true
		case 502, 503:
			// Typed degradation; must carry a JSON error body.
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(payload, &eb); err != nil || eb.Error == "" {
				t.Fatalf("untyped %d response: %s", code, payload)
			}
			time.Sleep(100 * time.Millisecond)
		default:
			t.Fatalf("unexpected status %d during kill drill: %s", code, payload)
		}
	}
	if !recovered {
		t.Fatal("router never recovered onto the surviving worker")
	}

	// The survivor now serves alone; failover or health-routing must have
	// engaged, and every admission slot must be back. A /readyz probe that
	// was in flight at the kill may report the dead worker healthy once
	// more, so the roster gets a few health intervals to settle.
	var stats struct {
		InFlight int `json:"in_flight"`
		Cluster  *struct {
			Workers []struct {
				Healthy bool `json:"healthy"`
			} `json:"workers"`
		} `json:"cluster"`
	}
	healthy := 0
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		resp, err := client.Get(rURL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Cluster == nil {
			t.Fatal("/v1/stats missing cluster block")
		}
		healthy = 0
		for _, w := range stats.Cluster.Workers {
			if w.Healthy {
				healthy++
			}
		}
		if healthy == 1 || time.Now().After(deadline) {
			break
		}
	}
	if healthy != 1 {
		t.Errorf("healthy workers = %d after kill, want 1", healthy)
	}
	if stats.InFlight != 0 {
		t.Errorf("admission slots leaked: in_flight = %d", stats.InFlight)
	}

	// Steady state on the survivor is fully functional.
	if code, payload := clusterQuery(t, client, rURL, `{"app":"pr","iters":4,"no_cache":true}`); code != 200 {
		t.Errorf("post-drill pr: status %d: %s", code, payload)
	}
}

// TestClusterStatusEndpoint checks GET /v1/cluster's document, the metric
// families a router exposes, and that a routed run's record on the router
// carries the answering worker and its engine phases.
func TestClusterStatusEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster test")
	}
	client := &http.Client{Timeout: 60 * time.Second}
	w1, c1 := startRole(t, "worker")
	defer stopCmd(c1)
	rURL, rc := startRole(t, "router", "-workers", w1, "-d", "C", "-scale", "0.25", "-health-interval", "100ms")
	defer stopCmd(rc)
	waitClusterReady(t, client, rURL, 1)

	code, payload := clusterQuery(t, client, rURL, `{"app":"bfs","root":1}`)
	if code != 200 {
		t.Fatalf("bfs: status %d: %s", code, payload)
	}
	var answer struct {
		RunID string `json:"run_id"`
	}
	if err := json.Unmarshal(payload, &answer); err != nil || answer.RunID == "" {
		t.Fatalf("bfs answer carries no run_id: %s", payload)
	}
	getJSON := func(url string, v any) {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}

	var st map[string]json.RawMessage
	getJSON(rURL+"/v1/cluster", &st)
	for _, key := range []string{"workers", "runs", "run_failures", "failovers"} {
		if _, ok := st[key]; !ok {
			t.Errorf("cluster status lacks %q: %s", key, st)
		}
	}
	if len(st) != 4 {
		t.Errorf("cluster status has keys beyond the roster and the run counters: %s", st)
	}
	var workers []struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
		Synced  bool   `json:"synced"`
		Runs    uint64 `json:"runs"`
	}
	if err := json.Unmarshal(st["workers"], &workers); err != nil {
		t.Fatal(err)
	}
	if len(workers) != 1 || workers[0].URL != w1 || !workers[0].Healthy || !workers[0].Synced || workers[0].Runs != 1 {
		t.Errorf("roster after one routed run: %+v", workers)
	}
	if string(st["runs"]) != "1" {
		t.Errorf("runs = %s, want 1", st["runs"])
	}

	// The run record on the router is the worker's view of the run.
	var rec struct {
		Worker string `json:"worker"`
		Trace  struct {
			Phases []struct {
				Phase string `json:"phase"`
				Wall  int64  `json:"wall_ns"`
			} `json:"phases"`
			Directions string `json:"directions"`
		} `json:"trace"`
	}
	getJSON(rURL+"/v1/runs/"+answer.RunID, &rec)
	if rec.Worker != w1 || len(rec.Trace.Phases) == 0 || rec.Trace.Directions == "" {
		t.Errorf("routed run record lacks the worker or its engine trace: %+v", rec)
	}

	// A routed query is one whole run on one worker: no frontier is
	// exchanged anywhere, so there is no exchange family to report.
	mresp, err := client.Get(rURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mb)
	if strings.Contains(metrics, "grazelle_exchange_bytes_total") {
		t.Error("metrics: grazelle_exchange_bytes_total is still exported")
	}
	for _, want := range []string{"grazelle_cluster_runs_total 1", `grazelle_cluster_routed_runs_total{worker="` + w1 + `"} 1`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "grazelle_cluster_exchange") || strings.Contains(metrics, "grazelle_cluster_peer") {
		t.Error("metrics still carry exchange-round or per-peer exchange families")
	}
}
