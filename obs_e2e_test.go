package grazelle

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// End-to-end tests of the serve mode's observability surface: /metrics
// deltas across a query, the /v1/runs trace ring with the sum-of-phases
// wall-time invariant, run IDs threading response ↔ record ↔ log, and the
// opt-in pprof listener.

// startServeObs launches `grazelle serve` with a pprof listener and returns
// both announced base URLs (service, pprof).
func startServeObs(t *testing.T, extra ...string) (string, string, *exec.Cmd) {
	t.Helper()
	bin := filepath.Join(cliBinaries(t), "grazelle")
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The service address is announced first, the pprof address second.
	var base, pprofBase string
	sc := bufio.NewScanner(stdout)
	for pprofBase == "" && sc.Scan() {
		line := sc.Text()
		i := strings.Index(line, "http://")
		if i < 0 {
			continue
		}
		addr := strings.TrimSpace(line[i:])
		if base == "" {
			base = addr
		} else {
			pprofBase = strings.TrimSuffix(addr, "/debug/pprof/")
		}
	}
	if base == "" || pprofBase == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("server never announced both addresses: %v", sc.Err())
	}
	// Keep draining the merged output so request logs never block the child.
	go io.Copy(io.Discard, stdout)
	return base, pprofBase, cmd
}

// metricSample returns the value of the first sample line whose name and
// label set contain all of the given substrings.
func metricSample(t *testing.T, text string, substrs ...string) (float64, bool) {
	t.Helper()
line:
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		for _, sub := range substrs {
			if !strings.Contains(ln, sub) {
				continue line
			}
		}
		fields := strings.Fields(ln)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", ln, err)
		}
		return v, true
	}
	return 0, false
}

func fetchText(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestServeMetricsEndToEnd drives a query through a live server and asserts
// the /metrics families move accordingly, the run's trace is retrievable by
// the run_id from the response, and the per-phase walls tile the run's wall
// time.
func TestServeMetricsEndToEnd(t *testing.T) {
	base, pprofBase, cmd := startServeObs(t, "-d", "C", "-scale", "0.25")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	client := &http.Client{Timeout: 30 * time.Second}

	before := fetchText(t, client, base+"/metrics")
	// Every ISSUE-mandated family is present from the first scrape.
	for _, fam := range []string{
		"grazelle_runs_total",
		"grazelle_run_seconds",
		"grazelle_run_phase_seconds",
		"grazelle_sched_job_exec_seconds",
		"grazelle_sched_job_wait_seconds",
		"grazelle_admission_admitted_total",
		"grazelle_admission_rejected_total",
		"grazelle_store_graphs",
		"grazelle_store_bytes_resident",
		"grazelle_http_request_seconds",
		"grazelle_http_responses_total",
		"grazelle_qcache_hits_total",
		"grazelle_qcache_misses_total",
		"grazelle_qcache_coalesced_total",
		"grazelle_qcache_evictions_total",
		"grazelle_qcache_bytes",
	} {
		if !strings.Contains(before, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	runsBefore, _ := metricSample(t, before, "grazelle_runs_total")
	runSecsBefore, _ := metricSample(t, before, "grazelle_run_seconds_count")

	// Enough iterations that phase wall times dominate the run and the
	// sum-of-phases invariant is meaningful, per the acceptance criteria.
	resp, err := client.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"app":"pr","iters":32}`))
	if err != nil {
		t.Fatal(err)
	}
	var q struct {
		RunID     string `json:"run_id"`
		Iters     int    `json:"iterations"`
		Mode      string `json:"mode"`
		ElapsedMS int64  `json:"elapsed_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if q.RunID == "" {
		t.Fatal("query response carries no run_id")
	}
	if hdr := resp.Header.Get("X-Run-Id"); hdr != q.RunID {
		t.Errorf("X-Run-Id header %q != body run_id %q", hdr, q.RunID)
	}

	after := fetchText(t, client, base+"/metrics")
	runsAfter, _ := metricSample(t, after, "grazelle_runs_total")
	if runsAfter != runsBefore+1 {
		t.Errorf("grazelle_runs_total went %v -> %v across one query", runsBefore, runsAfter)
	}
	runSecsAfter, _ := metricSample(t, after, "grazelle_run_seconds_count")
	if runSecsAfter != runSecsBefore+1 {
		t.Errorf("grazelle_run_seconds_count went %v -> %v across one query", runSecsBefore, runSecsAfter)
	}
	if v, ok := metricSample(t, after, "grazelle_run_phase_seconds_count", `phase="edge-pull"`); !ok || v < 1 {
		t.Errorf("edge-pull phase histogram count = %v (present %v)", v, ok)
	}
	if v, ok := metricSample(t, after, "grazelle_http_responses_total", `path="/v1/query"`, `code="2xx"`); !ok || v < 1 {
		t.Errorf("http responses 2xx for /v1/query = %v (present %v)", v, ok)
	}
	if v, ok := metricSample(t, after, "grazelle_sched_job_exec_seconds_count"); !ok || v < 1 {
		t.Errorf("job exec histogram count = %v (present %v)", v, ok)
	}

	// The run's trace, by the ID the response handed back.
	var rec struct {
		ID     string `json:"id"`
		Graph  string `json:"graph"`
		App    string `json:"app"`
		WallNS int64  `json:"wall_ns"`
		Iters  int    `json:"iterations"`
		Mode   string `json:"mode"`
		Trace  struct {
			Phases []struct {
				Phase  string `json:"phase"`
				WallNS int64  `json:"wall_ns"`
				Iters  int64  `json:"iters"`
			} `json:"phases"`
			Directions string `json:"directions"`
		} `json:"trace"`
	}
	recBody := fetchText(t, client, base+"/v1/runs/"+q.RunID)
	if err := json.Unmarshal([]byte(recBody), &rec); err != nil {
		t.Fatalf("decode run record: %v\n%s", err, recBody)
	}
	if rec.ID != q.RunID || rec.App != "pr" || rec.Graph != "default" {
		t.Errorf("record identity = %+v, want id %s app pr graph default", rec, q.RunID)
	}
	if rec.Iters != q.Iters {
		t.Errorf("record iterations %d != response %d", rec.Iters, q.Iters)
	}
	if q.Mode != "Hybrid" || rec.Mode != q.Mode {
		t.Errorf("mode: response %q, record %q, want Hybrid", q.Mode, rec.Mode)
	}
	if want := strings.Repeat("<", q.Iters); rec.Trace.Directions != want {
		t.Errorf("trace directions %q, want one pull mark per iteration (%d)", rec.Trace.Directions, q.Iters)
	}
	if len(rec.Trace.Phases) == 0 {
		t.Fatalf("trace missing: %+v", rec.Trace)
	}
	var phaseSum int64
	seen := map[string]bool{}
	for _, ph := range rec.Trace.Phases {
		phaseSum += ph.WallNS
		seen[ph.Phase] = true
	}
	for _, want := range []string{"edge-pull", "vertex"} {
		if !seen[want] {
			t.Errorf("phase %s missing from trace %+v", want, rec.Trace.Phases)
		}
	}
	// Sum-of-phases ≈ total wall time: never above it, and with 32 dense
	// PageRank iterations the engine phases dominate the run.
	if phaseSum > rec.WallNS {
		t.Errorf("phase wall sum %d exceeds run wall %d", phaseSum, rec.WallNS)
	}
	if phaseSum < rec.WallNS/2 {
		t.Errorf("phase wall sum %d under half the run wall %d — phases should dominate", phaseSum, rec.WallNS)
	}

	// The listing shows the same run newest-first; an unknown ID is 404.
	listBody := fetchText(t, client, base+"/v1/runs?n=5")
	var list struct {
		Runs []struct {
			ID string `json:"id"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(listBody), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) == 0 || list.Runs[0].ID != q.RunID {
		t.Errorf("/v1/runs head = %+v, want most recent %s", list.Runs, q.RunID)
	}
	if resp, err := client.Get(base + "/v1/runs/run-999999"); err != nil {
		t.Errorf("unknown run id: %v", err)
	} else {
		if resp.StatusCode != 404 {
			t.Errorf("unknown run id: status %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The opt-in pprof listener answers on its own address only.
	pp := fetchText(t, client, pprofBase+"/debug/pprof/cmdline")
	if !strings.Contains(pp, "grazelle") {
		t.Errorf("pprof cmdline output %q does not mention the binary", pp)
	}
	if resp, err := client.Get(base + "/debug/pprof/"); err == nil {
		if resp.StatusCode == 200 {
			t.Error("pprof reachable on the public address")
		}
		resp.Body.Close()
	}
}

// TestServeStatsMatchesMetrics: /v1/stats and /metrics render the same
// counters, so the two views of admission and run state cannot drift.
func TestServeStatsMatchesMetrics(t *testing.T) {
	base, _, cmd := startServeObs(t, "-d", "C", "-scale", "0.25")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	client := &http.Client{Timeout: 30 * time.Second}

	// Distinct iteration counts so each query is a cache miss and a real run.
	for i := 0; i < 3; i++ {
		resp, err := client.Post(base+"/v1/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"app":"pr","iters":%d}`, 4+i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var stats struct {
		Runs     float64 `json:"runs"`
		Rejected float64 `json:"rejected"`
	}
	if err := json.Unmarshal([]byte(fetchText(t, client, base+"/v1/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	text := fetchText(t, client, base+"/metrics")
	for name, want := range map[string]float64{
		"grazelle_runs_total":               stats.Runs,
		"grazelle_admission_rejected_total": stats.Rejected,
	} {
		if got, ok := metricSample(t, text, name); !ok || got != want {
			t.Errorf("%s = %v, /v1/stats says %v", name, got, want)
		}
	}
	if stats.Runs < 3 {
		t.Errorf("runs = %v after 3 queries", stats.Runs)
	}
}
