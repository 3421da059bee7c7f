package grazelle

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildCmd compiles one of the repository's executables into a shared temp
// dir, once per test process.
var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

func cliBinaries(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "grazelle-cli")
		if cliErr != nil {
			return
		}
		for _, tool := range []string{"grazelle", "gengraph", "benchfig"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(cliDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				cliErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if cliErr != nil {
		t.Skipf("cannot build CLI binaries: %v", cliErr)
	}
	return cliDir
}

func runCLI(t *testing.T, name string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(cliBinaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIGrazellePageRank(t *testing.T) {
	out, err := runCLI(t, "grazelle", "-d", "C", "-scale", "0.25", "-a", "pr", "-N", "4", "-counters")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"PageRank Sum: 1.0000", "Iterations: 4 (pull 4, push 0)", "Edge counters:", "atomics=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIGrazelleListApps(t *testing.T) {
	// -a list enumerates the registry without needing a graph at all.
	out, err := runCLI(t, "grazelle", "-a", "list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, name := range []string{"pr", "wpr", "cc", "bfs", "sssp", "tc", "kcore", "lp", "ppr"} {
		if !strings.Contains(out, name+" ") && !strings.Contains(out, name+"\n") {
			t.Errorf("-a list missing app %q:\n%s", name, out)
		}
	}
	for _, want := range []string{"params:", "(default 16)", "weighted graph required"} {
		if !strings.Contains(out, want) {
			t.Errorf("-a list missing %q:\n%s", want, out)
		}
	}
}

func TestCLIGrazelleRegistryApps(t *testing.T) {
	// The registry-era apps run end to end through the CLI with their
	// registered summary lines.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-a", "tc"}, "Triangles: "},
		{[]string{"-a", "kcore", "-k", "2"}, "In k-core: "},
		{[]string{"-a", "lp", "-N", "4"}, "Labels: "},
		{[]string{"-a", "ppr", "-N", "8", "-r", "1"}, "PPR Sum: "},
	} {
		args := append([]string{"-d", "C", "-scale", "0.25"}, tc.args...)
		out, err := runCLI(t, "grazelle", args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v output missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestCLIGrazelleRejectsBadFlags(t *testing.T) {
	if out, err := runCLI(t, "grazelle"); err == nil {
		t.Errorf("no input accepted:\n%s", out)
	}
	if out, err := runCLI(t, "grazelle", "-d", "C", "-a", "nope"); err == nil {
		t.Errorf("bad app accepted:\n%s", out)
	}
	if out, err := runCLI(t, "grazelle", "-d", "C", "-variant", "nope"); err == nil {
		t.Errorf("bad variant accepted:\n%s", out)
	}
	if out, err := runCLI(t, "grazelle", "-d", "C", "-a", "sssp"); err == nil {
		t.Errorf("SSSP on unweighted graph accepted:\n%s", out)
	}
	// Outer-only is reproduced by the Ligra-style baseline, not the engine.
	if out, err := runCLI(t, "grazelle", "-d", "C", "-variant", "outer"); err == nil || !strings.Contains(out, `unknown variant "outer"`) {
		t.Errorf("outer-only variant accepted (err %v):\n%s", err, out)
	}
	// The scalar kernel is scheduler-aware only: an error, not a panic.
	if out, err := runCLI(t, "grazelle", "-d", "C", "-scalar", "-variant", "trad"); err == nil ||
		!strings.Contains(out, "scheduler-aware pull only") || strings.Contains(out, "panic") {
		t.Errorf("scalar traditional pull not rejected with an error (err %v):\n%s", err, out)
	}
}

func TestCLIGengraphAndLoad(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "mesh")
	out, err := runCLI(t, "gengraph", "-kind", "mesh", "-rows", "10", "-cols", "10", "-weighted", "-o", base)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "100 vertices") {
		t.Errorf("gengraph output: %s", out)
	}
	// The pair must load and run through the grazelle CLI, SSSP included.
	outFile := filepath.Join(dir, "dist.txt")
	out, err = runCLI(t, "grazelle", "-i", base, "-a", "sssp", "-o", outFile)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Reached: 100 of 100") {
		t.Errorf("sssp output: %s", out)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 100 {
		t.Errorf("output file has %d lines, want 100", lines)
	}
}

func TestCLIGengraphTextConversion(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(txt, []byte("# demo\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "tri")
	out, err := runCLI(t, "gengraph", "-kind", "text", "-in", txt, "-o", base)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	out, err = runCLI(t, "grazelle", "-i", base, "-a", "cc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Components: 1") {
		t.Errorf("cc output: %s", out)
	}
}

func TestCLIBenchfig(t *testing.T) {
	out, err := runCLI(t, "benchfig", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// -list prints exactly the registered experiments, one per line in
	// name order: the paper's tables and figures plus dirsweep.
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	want := "dirsweep fig1 fig10 fig11 fig12 fig13 fig5 fig6 fig7 fig8 fig9 table1 table2"
	if got := strings.Join(listed, " "); got != want {
		t.Errorf("-list = %q, want %q", got, want)
	}
	// System numbers come from `bench`; the snapshot flags stay deleted.
	for _, args := range [][]string{{"-bench-json", "x"}, {"-partition-ab"}, {"-wal-bench"}, {"-incremental-ab"}} {
		out, err := runCLI(t, "benchfig", append(args, "fig9")...)
		if err == nil || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("benchfig %s: err=%v, want an undefined-flag failure:\n%s", args[0], err, out)
		}
	}
	out, err = runCLI(t, "benchfig", "-quick", "-datasets", "C", "fig9")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Figure 9a") || !strings.Contains(out, "Figure 9b") {
		t.Errorf("fig9 output:\n%s", out)
	}
	if out, err = runCLI(t, "benchfig", "nope"); err == nil {
		t.Errorf("unknown experiment accepted:\n%s", out)
	}
	if out, err = runCLI(t, "benchfig"); err == nil {
		t.Errorf("no experiment accepted:\n%s", out)
	}
}

// startServe launches `grazelle serve` with extra args and returns the
// announced base URL plus the running command. Callers own shutdown.
func startServe(t *testing.T, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	return startServeEnv(t, nil, extra...)
}

// startServeEnv is startServe with extra environment entries appended — the
// chaos tests arm failpoints in the child via GRAZELLE_FAILPOINTS.
func startServeEnv(t *testing.T, env []string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	bin := filepath.Join(cliBinaries(t), "grazelle")
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The server prints its resolved address once the listener is up.
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			// Keep draining the merged output: a few hundred logged
			// requests fill the pipe, and the server then blocks in a log
			// write until the client times out.
			go io.Copy(io.Discard, stdout)
			return strings.TrimSpace(line[i:]), cmd
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("server never announced its address: %v", sc.Err())
	return "", nil
}

func TestCLIGrazelleServe(t *testing.T) {
	base, cmd := startServe(t, "-d", "C", "-scale", "0.25")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	client := &http.Client{Timeout: 30 * time.Second}
	postJSON := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
		return resp.StatusCode, m
	}

	if resp, err := client.Get(base + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// PageRank on the preloaded "default" graph.
	code, m := postJSON("/v1/query", `{"app":"pr","iters":8}`)
	if code != 200 {
		t.Fatalf("pr query: status %d body %v", code, m)
	}
	if sum, ok := m["rank_sum"].(float64); !ok || sum < 0.999 || sum > 1.001 {
		t.Errorf("rank_sum = %v", m["rank_sum"])
	}
	if it, _ := m["iterations"].(float64); it != 8 {
		t.Errorf("iterations = %v, want 8", m["iterations"])
	}

	// Load a second graph through the API and query it.
	code, m = postJSON("/v1/graphs", `{"name":"d2","dataset":"D","scale":0.1}`)
	if code != 200 {
		t.Fatalf("load graph: status %d body %v", code, m)
	}
	code, m = postJSON("/v1/query", `{"graph":"d2","app":"cc"}`)
	if code != 200 {
		t.Fatalf("cc query: status %d body %v", code, m)
	}
	if _, ok := m["components"]; !ok {
		t.Errorf("cc response missing components: %v", m)
	}

	// Unknown graph and unknown app are client errors.
	if code, _ = postJSON("/v1/query", `{"graph":"nope","app":"pr"}`); code != 404 {
		t.Errorf("unknown graph: status %d, want 404", code)
	}
	if code, _ = postJSON("/v1/query", `{"app":"nope"}`); code != 400 {
		t.Errorf("unknown app: status %d, want 400", code)
	}

	// A 1 ms budget cannot fit 1<<20 PageRank iterations: the per-request
	// timeout must cut the run short with 504.
	code, m = postJSON("/v1/query", `{"app":"pr","iters":1048576,"timeout_ms":1}`)
	if code != 504 {
		t.Errorf("timeout query: status %d body %v, want 504", code, m)
	}
}

// serveClient bundles the little JSON helpers the serve tests share.
type serveClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func newServeClient(t *testing.T, base string) *serveClient {
	return &serveClient{t: t, base: base, c: &http.Client{Timeout: 30 * time.Second}}
}

func (sc *serveClient) do(method, path, body string) (int, map[string]any) {
	sc.t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, sc.base+path, rd)
	if err != nil {
		sc.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sc.c.Do(req)
	if err != nil {
		sc.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		sc.t.Fatalf("%s %s: decode: %v", method, path, err)
	}
	return resp.StatusCode, m
}

// TestCLIGrazelleServeStore exercises the store-backed serving surface:
// snapshot persistence across a restart with bit-identical query results,
// graph deletion, the stats endpoint, admission-control rejection, and
// graceful shutdown on SIGTERM.
func TestCLIGrazelleServeStore(t *testing.T) {
	dataDir := t.TempDir()
	// -cache-bypass: the 429 loop below repeats one identical query, which
	// the result cache would otherwise serve without touching admission.
	base, cmd := startServe(t,
		"-data-dir", dataDir, "-max-inflight", "1", "-max-queue", "0", "-cache-bypass")
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	sc := newServeClient(t, base)

	// Load two graphs; both must be snapshotted into the data dir.
	code, m := sc.do("POST", "/v1/graphs", `{"name":"g","dataset":"C","scale":0.25}`)
	if code != 200 {
		t.Fatalf("load g: status %d body %v", code, m)
	}
	if snap, _ := m["snapshotted"].(bool); !snap {
		t.Errorf("graph info after add = %v, want snapshotted", m)
	}
	if code, m = sc.do("POST", "/v1/graphs", `{"name":"doomed","dataset":"D","scale":0.1}`); code != 200 {
		t.Fatalf("load doomed: status %d body %v", code, m)
	}

	// Reference query, carrying per-vertex values for the exactness check.
	code, ref := sc.do("POST", "/v1/query", `{"graph":"g","app":"pr","iters":8,"values":true}`)
	if code != 200 {
		t.Fatalf("pr query: status %d body %v", code, ref)
	}
	refValues, ok := ref["values"].([]any)
	if !ok || len(refValues) == 0 {
		t.Fatalf("pr query returned no values: %v", ref)
	}

	// DELETE unregisters and clears the snapshot; 404 afterwards and for
	// unknown names.
	if code, m = sc.do("DELETE", "/v1/graphs/doomed", ""); code != 200 {
		t.Fatalf("delete: status %d body %v", code, m)
	}
	if code, _ = sc.do("DELETE", "/v1/graphs/doomed", ""); code != 404 {
		t.Errorf("double delete: status %d, want 404", code)
	}
	if code, _ = sc.do("POST", "/v1/query", `{"graph":"doomed","app":"pr"}`); code != 404 {
		t.Errorf("query deleted graph: status %d, want 404", code)
	}

	// Stats reflect the registry and the admission configuration.
	code, st := sc.do("GET", "/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats: status %d body %v", code, st)
	}
	if n, _ := st["graphs"].(float64); n != 1 {
		t.Errorf("stats graphs = %v, want 1", st["graphs"])
	}
	if b, _ := st["bytes_resident"].(float64); b <= 0 {
		t.Errorf("stats bytes_resident = %v, want > 0", st["bytes_resident"])
	}
	if mi, _ := st["max_in_flight"].(float64); mi != 1 {
		t.Errorf("stats max_in_flight = %v, want 1", st["max_in_flight"])
	}

	// Admission: with one slot and no queue, a long-running query forces
	// the next one to be refused with 429.
	long := make(chan int, 1)
	deadline := time.Now().Add(5 * time.Second)
	go func() {
		// A probe below can hold the slot when this arrives; the slot-holder
		// has to be this query, so a refusal is retried.
		for {
			code, _ := sc.do("POST", "/v1/query", `{"graph":"g","app":"pr","iters":1048576,"timeout_ms":3000}`)
			if code != 429 || time.Now().After(deadline) {
				long <- code
				return
			}
		}
	}()
	got429 := false
	for !got429 && time.Now().Before(deadline) {
		code, body := sc.do("POST", "/v1/query", `{"graph":"g","app":"pr","iters":2}`)
		switch code {
		case 429:
			if !strings.Contains(body["error"].(string), "overloaded") {
				t.Errorf("429 body = %v, want overloaded error", body)
			}
			got429 = true
		case 200:
			time.Sleep(5 * time.Millisecond) // long query not admitted yet
		default:
			t.Fatalf("concurrent query: status %d body %v", code, body)
		}
	}
	if !got429 {
		t.Error("never observed a 429 while the slot was held")
	}
	if code := <-long; code != 200 && code != 504 {
		t.Errorf("long query: status %d, want 200 or 504", code)
	}
	code, st = sc.do("GET", "/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if rej, _ := st["rejected"].(float64); got429 && rej < 1 {
		t.Errorf("stats rejected = %v, want >= 1", st["rejected"])
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server exit after SIGTERM: %v", err)
	}
	killed = true

	// Restart against the same data dir: the graph rehydrates from its
	// snapshot and serves bit-identical results.
	base2, cmd2 := startServe(t, "-data-dir", dataDir)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	sc2 := newServeClient(t, base2)

	code, list := sc2.do("GET", "/v1/graphs", "")
	if code != 200 {
		t.Fatalf("list after restart: status %d body %v", code, list)
	}
	graphs, _ := list["graphs"].([]any)
	if len(graphs) != 1 {
		t.Fatalf("graphs after restart = %v, want just g", list)
	}
	info, _ := graphs[0].(map[string]any)
	if info["name"] != "g" || info["resident"] != false {
		t.Errorf("graph after restart = %v, want cold g", info)
	}

	code, got := sc2.do("POST", "/v1/query", `{"graph":"g","app":"pr","iters":8,"values":true}`)
	if code != 200 {
		t.Fatalf("pr query after restart: status %d body %v", code, got)
	}
	gotValues, _ := got["values"].([]any)
	if len(gotValues) != len(refValues) {
		t.Fatalf("values length %d, want %d", len(gotValues), len(refValues))
	}
	for i := range refValues {
		if refValues[i] != gotValues[i] {
			t.Fatalf("values[%d] = %v, want %v (rehydrated results differ)", i, gotValues[i], refValues[i])
		}
	}
}

// postJSONRaw is a goroutine-safe query helper for the chaos tests: unlike
// serveClient it reports failures as values instead of calling t.Fatal, so it
// can run from spawned goroutines.
func postJSONRaw(client *http.Client, url, body string) (int, map[string]any, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, m, nil
}

// TestCLIGrazelleServeChaosPanic is the acceptance chaos drill: with a
// failpoint armed to panic inside exactly one engine chunk, N concurrent
// queries must yield exactly one contained 500 while the other N-1 return
// bit-identical results, and the server must keep serving afterwards —
// liveness probe green, follow-up query healthy, no leaked admission slots.
func TestCLIGrazelleServeChaosPanic(t *testing.T) {
	// -cache-bypass: this drill needs N independent runs so exactly one hits
	// the single-shot failpoint; coalescing would share one run (and its
	// panic) across all N clients.
	base, cmd := startServeEnv(t,
		[]string{"GRAZELLE_FAILPOINTS=core/chunk=panic*1"},
		"-d", "C", "-scale", "0.25", "-cache-bypass")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	client := &http.Client{Timeout: 30 * time.Second}

	const n = 6
	const query = `{"app":"pr","iters":8,"values":true}`
	type result struct {
		code int
		body map[string]any
		err  error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			code, m, err := postJSONRaw(client, base+"/v1/query", query)
			results <- result{code, m, err}
		}()
	}

	var fails, oks int
	var failBody map[string]any
	var survivors [][]any
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("concurrent query: %v (server died?)", r.err)
		}
		switch r.code {
		case 500:
			fails++
			failBody = r.body
		case 200:
			oks++
			vals, ok := r.body["values"].([]any)
			if !ok || len(vals) == 0 {
				t.Fatalf("surviving query returned no values: %v", r.body)
			}
			survivors = append(survivors, vals)
		default:
			t.Fatalf("concurrent query: status %d body %v, want 200 or 500", r.code, r.body)
		}
	}
	if fails != 1 || oks != n-1 {
		t.Fatalf("got %d failed / %d ok queries, want exactly 1 / %d", fails, oks, n-1)
	}
	if msg, _ := failBody["error"].(string); !strings.Contains(msg, "panic") {
		t.Errorf("500 body = %v, want a contained-panic error", failBody)
	}
	for i := 1; i < len(survivors); i++ {
		if len(survivors[i]) != len(survivors[0]) {
			t.Fatalf("survivor %d has %d values, survivor 0 has %d", i, len(survivors[i]), len(survivors[0]))
		}
		for j := range survivors[i] {
			if survivors[i][j] != survivors[0][j] {
				t.Fatalf("survivors disagree at vertex %d: %v vs %v", j, survivors[i][j], survivors[0][j])
			}
		}
	}

	// The panic was contained: the process is alive, a fresh query works (the
	// failpoint's one shot is spent) and matches the survivors bit for bit.
	resp, err := client.Get(base + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz after panic: %v %v", resp, err)
	}
	resp.Body.Close()
	code, after, err := postJSONRaw(client, base+"/v1/query", query)
	if err != nil || code != 200 {
		t.Fatalf("query after panic: status %d err %v body %v", code, err, after)
	}
	afterVals, _ := after["values"].([]any)
	if len(afterVals) != len(survivors[0]) {
		t.Fatalf("post-panic values length %d, want %d", len(afterVals), len(survivors[0]))
	}
	for j := range afterVals {
		if afterVals[j] != survivors[0][j] {
			t.Fatalf("post-panic values[%d] = %v, want %v", j, afterVals[j], survivors[0][j])
		}
	}

	// No admission slot leaked across the contained failure.
	sc := newServeClient(t, base)
	codeSt, st := sc.do("GET", "/v1/stats", "")
	if codeSt != 200 {
		t.Fatalf("stats: status %d", codeSt)
	}
	if inf, _ := st["in_flight"].(float64); inf != 0 {
		t.Errorf("stats in_flight = %v after chaos run, want 0", st["in_flight"])
	}
	if q, _ := st["queued"].(float64); q != 0 {
		t.Errorf("stats queued = %v after chaos run, want 0", st["queued"])
	}
}

// TestCLIGrazelleServeHandlerPanicReleasesSlot arms the serve/handler
// failpoint — a panic raised after admission but before the query runs — and
// verifies the recovery middleware turns it into a 500 while the deferred
// release still frees the only admission slot: with max-inflight 1 and no
// queue, the very next query would 429 forever if the slot leaked.
func TestCLIGrazelleServeHandlerPanicReleasesSlot(t *testing.T) {
	base, cmd := startServeEnv(t,
		[]string{"GRAZELLE_FAILPOINTS=serve/handler=panic*1"},
		"-d", "C", "-scale", "0.25", "-max-inflight", "1", "-max-queue", "0")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	sc := newServeClient(t, base)

	code, body := sc.do("POST", "/v1/query", `{"app":"pr","iters":2}`)
	if code != 500 {
		t.Fatalf("panicking handler: status %d body %v, want 500", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "panic") {
		t.Errorf("500 body = %v, want panic message", body)
	}

	// Readiness is still green (a contained handler panic is not degradation)
	// and the slot came back: the next query is admitted and succeeds.
	if resp, err := sc.c.Get(base + "/readyz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz after handler panic: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	code, body = sc.do("POST", "/v1/query", `{"app":"pr","iters":2}`)
	if code != 200 {
		t.Fatalf("query after handler panic: status %d body %v (admission slot leaked?)", code, body)
	}
	codeSt, st := sc.do("GET", "/v1/stats", "")
	if codeSt != 200 {
		t.Fatalf("stats: status %d", codeSt)
	}
	if inf, _ := st["in_flight"].(float64); inf != 0 {
		t.Errorf("stats in_flight = %v, want 0", st["in_flight"])
	}
}

// TestCLIGrazelleServeCrashRecovery is the streaming-mutation crash drill:
// acknowledged edge batches must survive a SIGKILL (WAL replay serves a
// bit-identical view on restart), and a batch whose WAL fsync failed — the
// server said no — must be absent after the next crash, not half-applied.
func TestCLIGrazelleServeCrashRecovery(t *testing.T) {
	dataDir := t.TempDir()
	const mutate = `{"ops":[{"src":1,"dst":2,"weight":1.5},{"delete":true,"src":2,"dst":3},{"src":4,"dst":1,"weight":0.5}]}`
	const query = `{"graph":"g","app":"pr","iters":8,"values":true,"no_cache":true}`

	// Phase 1: load a graph, apply two acknowledged mutation batches, record
	// the served values, then crash without any shutdown grace.
	base, cmd := startServe(t, "-data-dir", dataDir)
	sc := newServeClient(t, base)
	if code, m := sc.do("POST", "/v1/graphs", `{"name":"g","dataset":"C","scale":0.25}`); code != 200 {
		t.Fatalf("load g: status %d body %v", code, m)
	}
	var lastVersion float64
	for i := 0; i < 2; i++ {
		code, m := sc.do("POST", "/v1/graphs/g/edges", mutate)
		if code != 200 {
			t.Fatalf("mutation %d: status %d body %v", i, code, m)
		}
		if v, _ := m["version"].(float64); v <= lastVersion {
			t.Fatalf("mutation %d version = %v, want > %v", i, m["version"], lastVersion)
		} else {
			lastVersion = v
		}
	}
	code, ref := sc.do("POST", "/v1/query", query)
	if code != 200 {
		t.Fatalf("reference query: status %d body %v", code, ref)
	}
	refValues, _ := ref["values"].([]any)
	if len(refValues) == 0 {
		t.Fatal("reference query returned no values")
	}
	cmd.Process.Kill()
	cmd.Wait()

	// Phase 2: restart with the WAL fsync failpoint armed. The two acked
	// batches replay bit-identically; the next batch is refused (its fsync
	// fails, the tail rolls back) before this instance is crashed too.
	base2, cmd2 := startServeEnv(t,
		[]string{"GRAZELLE_FAILPOINTS=store/wal-fsync=error*1"},
		"-data-dir", dataDir)
	sc2 := newServeClient(t, base2)
	code, got := sc2.do("POST", "/v1/query", query)
	if code != 200 {
		t.Fatalf("query after crash: status %d body %v", code, got)
	}
	assertSameValues(t, refValues, got["values"], "acked batches after SIGKILL")
	code, m := sc2.do("POST", "/v1/graphs/g/edges", `{"ops":[{"src":7,"dst":8,"weight":9.0}]}`)
	if code == 200 {
		t.Fatalf("mutation with failing fsync: status 200 body %v, want refusal", m)
	}
	cmd2.Process.Kill()
	cmd2.Wait()

	// Phase 3: clean restart. The refused batch must be absent — the served
	// view still matches the two acknowledged batches exactly — and writes
	// work again.
	base3, cmd3 := startServe(t, "-data-dir", dataDir)
	defer func() {
		cmd3.Process.Kill()
		cmd3.Wait()
	}()
	sc3 := newServeClient(t, base3)
	code, got = sc3.do("POST", "/v1/query", query)
	if code != 200 {
		t.Fatalf("query after second crash: status %d body %v", code, got)
	}
	assertSameValues(t, refValues, got["values"], "unacked batch rolled back")
	if code, m := sc3.do("POST", "/v1/graphs/g/edges", mutate); code != 200 {
		t.Fatalf("post-recovery mutation: status %d body %v", code, m)
	}
	if code, m := sc3.do("POST", "/v1/graphs/g/compact", ""); code != 200 {
		t.Fatalf("compact: status %d body %v", code, m)
	}
	// Compaction is bit-preserving and idempotent on an empty overlay.
	if code, m := sc3.do("POST", "/v1/graphs/g/compact", ""); code != 200 {
		t.Fatalf("second compact: status %d body %v", code, m)
	}
}

// assertSameValues compares two JSON-decoded per-vertex value arrays
// exactly. JSON float round-tripping is bit-faithful for float64, so
// interface equality here is bit-identity of the served values.
func assertSameValues(t *testing.T, want []any, gotAny any, label string) {
	t.Helper()
	got, _ := gotAny.([]any)
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: values[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// doRaw is do returning the raw response bytes and headers — for the tests
// that assert byte-identity between cached and fresh payloads.
func (sc *serveClient) doRaw(method, path, body string) (int, http.Header, []byte) {
	sc.t.Helper()
	req, err := http.NewRequest(method, sc.base+path, strings.NewReader(body))
	if err != nil {
		sc.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sc.c.Do(req)
	if err != nil {
		sc.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		sc.t.Fatalf("%s %s: read: %v", method, path, err)
	}
	return resp.StatusCode, resp.Header, raw
}

// metric scrapes one counter/gauge value from GET /metrics (0 if absent).
func (sc *serveClient) metric(name string) float64 {
	sc.t.Helper()
	resp, err := sc.c.Get(sc.base + "/metrics")
	if err != nil {
		sc.t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	s := bufio.NewScanner(resp.Body)
	for s.Scan() {
		fields := strings.Fields(s.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				sc.t.Fatalf("metric %s = %q: %v", name, fields[1], err)
			}
			return v
		}
	}
	return 0
}

// TestServeIncrementalQuery drives the incremental-recompute path end to
// end: a cold query retains its lanes as a seed, a small mutation batch
// moves the version, and the next identical query warm-starts from the
// predecessor — surfacing `incremental: true` plus the seed version in both
// the response and the run record, bumping grazelle_incremental_seeded_total,
// and still hitting the result cache byte-identically on repeat.
func TestServeIncrementalQuery(t *testing.T) {
	base, cmd := startServe(t, "-data-dir", t.TempDir())
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	sc := newServeClient(t, base)
	if code, m := sc.do("POST", "/v1/graphs", `{"name":"g","dataset":"C","scale":0.25}`); code != 200 {
		t.Fatalf("load g: status %d body %v", code, m)
	}
	const query = `{"graph":"g","app":"cc","values":true}`

	// Cold query: no predecessor yet, so no incremental flag; its result is
	// offered as the seed candidate.
	code, cold := sc.do("POST", "/v1/query", query)
	if code != 200 {
		t.Fatalf("cold query: status %d body %v", code, cold)
	}
	if _, ok := cold["incremental"]; ok {
		t.Fatalf("cold query claims incremental: %v", cold)
	}

	// A small insert-only batch: cc's planner accepts any such delta.
	code, mut := sc.do("POST", "/v1/graphs/g/edges",
		`{"ops":[{"src":1,"dst":2,"weight":1},{"src":3,"dst":4,"weight":1}]}`)
	if code != 200 {
		t.Fatalf("mutation: status %d body %v", code, mut)
	}

	code, hdr, raw := sc.doRaw("POST", "/v1/query", query)
	if code != 200 {
		t.Fatalf("incremental query: status %d body %s", code, raw)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if inc, _ := m["incremental"].(bool); !inc {
		t.Fatalf("query after mutation not incremental: %v", m)
	}
	sv, _ := m["seed_version"].(float64)
	if sv < 1 {
		t.Fatalf("seed_version = %v, want >= 1", m["seed_version"])
	}
	if _, ok := m["components"]; !ok {
		t.Fatalf("incremental cc response missing components: %v", m)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Errorf("incremental query X-Cache = %q, want miss (new version)", got)
	}

	// The run record carries the same incremental marker.
	runID, _ := m["run_id"].(string)
	code, rec := sc.do("GET", "/v1/runs/"+runID, "")
	if code != 200 {
		t.Fatalf("run record: status %d body %v", code, rec)
	}
	if inc, _ := rec["incremental"].(bool); !inc {
		t.Errorf("run record not incremental: %v", rec)
	}
	if rsv, _ := rec["seed_version"].(float64); rsv != sv {
		t.Errorf("record seed_version = %v, response had %v", rec["seed_version"], sv)
	}

	// Metrics: exactly one warm start, no fallback.
	if v := sc.metric("grazelle_incremental_seeded_total"); v != 1 {
		t.Errorf("grazelle_incremental_seeded_total = %v, want 1", v)
	}
	if v := sc.metric("grazelle_incremental_fallback_total"); v != 0 {
		t.Errorf("grazelle_incremental_fallback_total = %v, want 0", v)
	}

	// Repeating the query hits the result cache with the byte-identical
	// payload the incremental run produced.
	code, hdr2, raw2 := sc.doRaw("POST", "/v1/query", query)
	if code != 200 {
		t.Fatalf("repeat query: status %d", code)
	}
	if got := hdr2.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat query X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(raw, raw2) {
		t.Errorf("cached payload differs from incremental payload:\n%s\n%s", raw, raw2)
	}
	if v := sc.metric("grazelle_incremental_seeded_total"); v != 1 {
		t.Errorf("cache hit bumped seeded_total to %v", v)
	}
}

// TestServeIncrementalSeedFaultFallsBack arms the core/incremental-seed
// failpoint in the child server: the seeded run's install panics, the
// engine degrades to a cold full recompute, and the query still answers
// correctly — no incremental flag, the fallback counter bumped, and no
// admission slot leaked.
func TestServeIncrementalSeedFaultFallsBack(t *testing.T) {
	base, cmd := startServeEnv(t,
		[]string{"GRAZELLE_FAILPOINTS=core/incremental-seed=panic*1"},
		"-data-dir", t.TempDir())
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	sc := newServeClient(t, base)
	if code, m := sc.do("POST", "/v1/graphs", `{"name":"g","dataset":"C","scale":0.25}`); code != 200 {
		t.Fatalf("load g: status %d body %v", code, m)
	}
	const query = `{"graph":"g","app":"cc","values":true}`
	if code, m := sc.do("POST", "/v1/query", query); code != 200 {
		t.Fatalf("cold query: status %d body %v", code, m)
	}
	if code, m := sc.do("POST", "/v1/graphs/g/edges",
		`{"ops":[{"src":1,"dst":2,"weight":1}]}`); code != 200 {
		t.Fatalf("mutation: status %d body %v", code, m)
	}

	code, m := sc.do("POST", "/v1/query", query)
	if code != 200 {
		t.Fatalf("query under seed fault: status %d body %v", code, m)
	}
	if _, ok := m["incremental"]; ok {
		t.Fatalf("faulted seed still reported incremental: %v", m)
	}
	// The degraded run is a full recompute: its values must match an
	// uncached cold run of the same query.
	code, ref := sc.do("POST", "/v1/query", `{"graph":"g","app":"cc","values":true,"no_cache":true}`)
	if code != 200 {
		t.Fatalf("reference query: status %d body %v", code, ref)
	}
	assertSameValues(t, ref["values"].([]any), m["values"], "fallback vs cold")

	if v := sc.metric("grazelle_incremental_fallback_total"); v < 1 {
		t.Errorf("grazelle_incremental_fallback_total = %v, want >= 1", v)
	}
	if v := sc.metric("grazelle_incremental_seeded_total"); v != 0 {
		t.Errorf("grazelle_incremental_seeded_total = %v, want 0", v)
	}
	code, st := sc.do("GET", "/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if inf, _ := st["in_flight"].(float64); inf != 0 {
		t.Errorf("stats in_flight = %v after seed fault, want 0", st["in_flight"])
	}
}
