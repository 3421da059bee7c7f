package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	grazelle "repro"
	"repro/internal/fault"
	"repro/internal/obs"
)

// maxCatalogBatches bounds the retained mutation history per graph; a graph
// past it can no longer be resynced onto a restarted worker (that worker
// stays out of rotation until the graph is re-added or the worker restarts
// with persistent state of its own).
const maxCatalogBatches = 1024

// RouterConfig configures a Router.
type RouterConfig struct {
	// Workers is the static roster of worker base URLs.
	Workers []string
	// HealthInterval paces the /readyz + resync loop (default 1s).
	HealthInterval time.Duration
	// Registry receives the grazelle_cluster_* families (nil = private
	// registry, for tests).
	Registry *obs.Registry
	// Logger receives health and resync events (nil = discard).
	Logger *slog.Logger
}

// workerState is one roster entry's view from the router.
type workerState struct {
	url      string
	healthy  bool
	synced   bool
	lastSeen time.Time
	lastErr  string
	rtt      time.Duration
}

// catalogEntry is the router's authoritative lineage for one graph: how to
// materialize it plus every mutation batch applied since, in order — the
// replay script that brings a blank worker in sync.
type catalogEntry struct {
	spec     GraphSpec
	batches  [][]grazelle.EdgeOp
	overflow bool
}

// Router owns placement and cluster execution. It health-checks the worker
// roster, keeps each worker's replica in sync with the graph catalog by
// replaying it through the worker's public API, sends each query to the one
// replica its rendezvous hash ranks first, and retries once on the next when
// that worker fails in a way another replica could cure.
type Router struct {
	cfg          RouterConfig
	client       *http.Client // runs + catalog broadcast; deadline comes from ctx
	healthClient *http.Client
	log          *slog.Logger
	metrics      *routerMetrics

	mu         sync.Mutex
	workers    []*workerState
	catalog    map[string]*catalogEntry
	catalogGen uint64
	locks      map[string]*sync.RWMutex

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewRouter creates a router over a static worker roster; Start launches
// its health loop.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Router{
		cfg:          cfg,
		client:       &http.Client{},
		healthClient: &http.Client{Timeout: 2 * time.Second},
		log:          cfg.Logger,
		catalog:      make(map[string]*catalogEntry),
		locks:        make(map[string]*sync.RWMutex),
		stop:         make(chan struct{}),
	}
	peers := make([]string, 0, len(cfg.Workers))
	for _, u := range cfg.Workers {
		u = strings.TrimRight(u, "/")
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		peers = append(peers, u)
		r.workers = append(r.workers, &workerState{url: u})
	}
	r.metrics = newRouterMetrics(reg, peers)
	reg.GaugeFunc("grazelle_cluster_workers", "Worker roster by state.",
		obs.Labels{"state": "total"}, func() float64 { return float64(len(r.workers)) })
	reg.GaugeFunc("grazelle_cluster_workers", "Worker roster by state.",
		obs.Labels{"state": "healthy"}, func() float64 { h, _ := r.counts(); return float64(h) })
	reg.GaugeFunc("grazelle_cluster_workers", "Worker roster by state.",
		obs.Labels{"state": "synced"}, func() float64 { _, s := r.counts(); return float64(s) })
	return r
}

func (r *Router) counts() (healthy, synced int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		if w.healthy {
			healthy++
		}
		if w.healthy && w.synced {
			synced++
		}
	}
	return
}

// Start launches the health/resync loop.
func (r *Router) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.cfg.HealthInterval)
		defer t.Stop()
		r.healthPass()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.healthPass()
			}
		}
	}()
}

// Close stops the health loop.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// healthPass probes every worker's /readyz and resyncs healthy workers
// whose replicas trail the catalog.
func (r *Router) healthPass() {
	r.mu.Lock()
	roster := append([]*workerState(nil), r.workers...)
	r.mu.Unlock()
	for _, w := range roster {
		start := time.Now()
		resp, err := r.healthClient.Get(w.url + "/readyz")
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		r.mu.Lock()
		wasHealthy := w.healthy
		w.healthy = ok
		w.rtt = time.Since(start)
		if ok {
			w.lastSeen = time.Now()
			w.lastErr = ""
		} else {
			w.synced = false
			if err != nil {
				w.lastErr = err.Error()
			} else {
				w.lastErr = fmt.Sprintf("readyz status %d", resp.StatusCode)
			}
		}
		needSync := ok && !w.synced
		r.mu.Unlock()
		if ok != wasHealthy {
			r.log.Info("cluster worker health changed", "worker", w.url, "healthy", ok)
		}
		if needSync {
			r.resync(w)
		}
	}
}

// resync replays the catalog onto one healthy worker through its public
// API. The replay runs without holding the router lock; a catalog write
// during the replay bumps the generation and the sync flag is withheld, so
// the next health tick replays again from the new state.
func (r *Router) resync(w *workerState) {
	r.mu.Lock()
	gen := r.catalogGen
	entries := make([]catalogEntry, 0, len(r.catalog))
	for _, e := range r.catalog {
		entries = append(entries, catalogEntry{
			spec:     e.spec,
			batches:  append([][]grazelle.EdgeOp(nil), e.batches...),
			overflow: e.overflow,
		})
	}
	r.mu.Unlock()

	for _, e := range entries {
		if e.overflow {
			r.mu.Lock()
			w.lastErr = fmt.Sprintf("graph %s mutation history exceeds %d batches; cannot resync", e.spec.Name, maxCatalogBatches)
			r.mu.Unlock()
			r.log.Warn("cluster resync impossible", "worker", w.url, "graph", e.spec.Name)
			return
		}
		if err := r.postJSON(context.Background(), w.url+"/v1/graphs", e.spec); err != nil {
			r.noteSyncError(w, fmt.Errorf("resync add %s: %w", e.spec.Name, err))
			return
		}
		for _, batch := range e.batches {
			if err := r.postJSON(context.Background(), w.url+"/v1/graphs/"+e.spec.Name+"/edges", wireOps(batch)); err != nil {
				r.noteSyncError(w, fmt.Errorf("resync edges %s: %w", e.spec.Name, err))
				return
			}
		}
	}

	r.mu.Lock()
	if r.catalogGen == gen {
		w.synced = true
		w.lastErr = ""
	}
	r.mu.Unlock()
	r.log.Info("cluster worker synced", "worker", w.url, "graphs", len(entries))
}

func (r *Router) noteSyncError(w *workerState, err error) {
	r.mu.Lock()
	w.lastErr = err.Error()
	r.mu.Unlock()
	r.log.Warn("cluster resync failed", "worker", w.url, "error", err)
}

// LockGraph returns the per-graph lock serializing catalog writes against
// cluster execution: mutation/add/delete handlers hold it for writing
// around (local apply + broadcast), Execute holds it for reading — so a run
// never straddles a version change across replicas.
func (r *Router) LockGraph(name string) *sync.RWMutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.locks[name]
	if !ok {
		l = &sync.RWMutex{}
		r.locks[name] = l
	}
	return l
}

// RecordGraph registers a graph in the catalog without broadcasting —
// the preload path, where workers pick the graph up through resync (every
// worker starts unsynced).
func (r *Router) RecordGraph(spec GraphSpec) {
	r.mu.Lock()
	r.catalog[spec.Name] = &catalogEntry{spec: spec}
	r.catalogGen++
	r.mu.Unlock()
}

// GraphAdded records an add in the catalog and pushes it to every in-sync
// worker; a worker that refuses drops to unsynced and is repaired by the
// health loop.
func (r *Router) GraphAdded(spec GraphSpec) {
	r.mu.Lock()
	r.catalog[spec.Name] = &catalogEntry{spec: spec}
	r.catalogGen++
	targets := r.syncedLocked()
	r.mu.Unlock()
	for _, w := range targets {
		if err := r.postJSON(context.Background(), w.url+"/v1/graphs", spec); err != nil {
			r.desync(w, fmt.Errorf("broadcast add %s: %w", spec.Name, err))
		}
	}
}

// GraphDeleted records a delete and pushes it to every in-sync worker.
func (r *Router) GraphDeleted(name string) {
	r.mu.Lock()
	delete(r.catalog, name)
	r.catalogGen++
	targets := r.syncedLocked()
	r.mu.Unlock()
	for _, w := range targets {
		req, _ := http.NewRequest(http.MethodDelete, w.url+"/v1/graphs/"+name, nil)
		resp, err := r.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			// 404 is fine: the worker never had it, which is the goal state.
			if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotFound {
				continue
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		r.desync(w, fmt.Errorf("broadcast delete %s: %w", name, err))
	}
}

// EdgesApplied appends one applied mutation batch to the graph's lineage
// and pushes it to every in-sync worker. Replicas apply the same batch to
// the same bits, so last-writer-wins overlays stay identical everywhere.
func (r *Router) EdgesApplied(name string, ops []grazelle.EdgeOp) {
	r.mu.Lock()
	if e := r.catalog[name]; e != nil {
		if len(e.batches) >= maxCatalogBatches {
			e.overflow = true
		} else {
			e.batches = append(e.batches, append([]grazelle.EdgeOp(nil), ops...))
		}
	}
	r.catalogGen++
	targets := r.syncedLocked()
	r.mu.Unlock()
	for _, w := range targets {
		if err := r.postJSON(context.Background(), w.url+"/v1/graphs/"+name+"/edges", wireOps(ops)); err != nil {
			r.desync(w, fmt.Errorf("broadcast edges %s: %w", name, err))
		}
	}
}

func (r *Router) syncedLocked() []*workerState {
	var out []*workerState
	for _, w := range r.workers {
		if w.healthy && w.synced {
			out = append(out, w)
		}
	}
	return out
}

func (r *Router) desync(w *workerState, err error) {
	r.mu.Lock()
	w.synced = false
	w.lastErr = err.Error()
	r.mu.Unlock()
	r.log.Warn("cluster worker desynced", "worker", w.url, "error", err)
}

// wireOps renders a mutation batch in the public /edges request schema.
func wireOps(ops []grazelle.EdgeOp) any {
	type wireOp struct {
		Delete bool    `json:"delete,omitempty"`
		Src    uint32  `json:"src"`
		Dst    uint32  `json:"dst"`
		Weight float32 `json:"weight,omitempty"`
	}
	out := make([]wireOp, len(ops))
	for i, op := range ops {
		out[i] = wireOp{Delete: op.Delete, Src: op.Src, Dst: op.Dst, Weight: op.Weight}
	}
	return map[string]any{"ops": out}
}

func (r *Router) postJSON(ctx context.Context, url string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(payload)))
	}
	return nil
}

// RunResult is a completed routed run: the answering worker's response and
// which worker that was.
type RunResult struct {
	RunResponse
	Worker string
}

// Execute runs one query on the cluster: post it to the replica the query's
// rendezvous hash ranks first and, when that worker fails in a way another
// replica could cure, once more to the next in rank.
func (r *Router) Execute(ctx context.Context, runID string, spec RunSpec) (*RunResult, error) {
	r.metrics.runs.Inc()
	req := RunRequest{RunID: runID, RunSpec: spec}
	ranked := r.rank(spec)
	if len(ranked) > 2 {
		ranked = ranked[:2] // one retry
	}
	var last *PeerError
	for attempt, url := range ranked {
		if attempt > 0 {
			r.metrics.failovers.Inc()
			r.log.Warn("cluster run failing over", "run", runID, "to", url, "error", last)
		}
		resp, err := r.postRun(ctx, url, &req)
		if err == nil {
			r.metrics.routed[url].Inc()
			return &RunResult{RunResponse: *resp, Worker: url}, nil
		}
		if ctx.Err() != nil || !r.noteFailure(err) {
			r.metrics.failures.Inc()
			return nil, err
		}
		last = err
	}
	r.metrics.failures.Inc()
	if last == nil {
		return nil, &UnavailableError{Reason: "no healthy synced workers"}
	}
	return nil, &UnavailableError{Reason: "failover exhausted", Cause: last}
}

// rank orders the healthy, synced workers for one query by rendezvous
// (highest-random-weight) hash: every worker scores the query independently,
// so a stable roster always ranks a query the same way and removing a worker
// changes the first choice of only the queries that worker was serving.
// Values and the deadline are left out — they shape the response, not the
// computation a replica would cache or warm-start.
func (r *Router) rank(spec RunSpec) []string {
	r.mu.Lock()
	urls := make([]string, 0, len(r.workers))
	for _, w := range r.syncedLocked() {
		urls = append(urls, w.url)
	}
	r.mu.Unlock()
	score := make(map[string]uint64, len(urls))
	for _, u := range urls {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\x00%d\x00%d", u, spec.Graph, spec.App, spec.Iters, spec.Root, spec.K)
		score[u] = avalanche(h.Sum64())
	}
	sort.Slice(urls, func(i, j int) bool {
		if score[urls[i]] != score[urls[j]] {
			return score[urls[i]] > score[urls[j]]
		}
		return urls[i] < urls[j]
	})
	return urls
}

// avalanche is the 64-bit finalizer of MurmurHash3. Scores are compared as
// integers, and FNV-1a alone leaves the order of two workers' scores nearly
// fixed across queries that differ only in their last bytes (64 consecutive
// bfs roots split 3/61 over some pairs of worker ports).
func avalanche(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// noteFailure classifies one run failure, updates roster state, and reports
// whether another replica could cure it.
func (r *Router) noteFailure(err *PeerError) bool {
	switch {
	case err.Status == 0:
		// Unreachable: down until /readyz says otherwise.
		r.markWorker(err.Worker, func(w *workerState) { w.healthy = false; w.synced = false; w.lastErr = err.Error() })
		return true
	case err.Code == "not_found" || err.Code == "out_of_sync":
		// The replica trails the catalog: pull it from rotation for repair.
		r.markWorker(err.Worker, func(w *workerState) { w.synced = false; w.lastErr = err.Error() })
		return true
	case err.Status == http.StatusTooManyRequests:
		// Admission pressure on that one worker; it stays in rotation.
		return true
	default:
		// An engine error (Code "run") repeats on an identical replica, and a
		// timeout or a closing store has already spent the request's budget.
		return false
	}
}

func (r *Router) markWorker(url string, mark func(*workerState)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		if w.url == url {
			mark(w)
		}
	}
}

// postRun sends one /internal/run request and decodes the outcome.
func (r *Router) postRun(ctx context.Context, url string, rr *RunRequest) (*RunResponse, *PeerError) {
	// Fault-injection site for chaos tests: an error here is a transport
	// failure to the chosen worker.
	if err := fault.Inject("cluster/run"); err != nil {
		return nil, &PeerError{Worker: url, Err: err}
	}
	body, err := json.Marshal(rr)
	if err != nil {
		return nil, &PeerError{Worker: url, Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/internal/run", bytes.NewReader(body))
	if err != nil {
		return nil, &PeerError{Worker: url, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, &PeerError{Worker: url, Err: err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, &PeerError{Worker: url, Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.Unmarshal(payload, &eb)
		if eb.Error == "" {
			eb.Error = strings.TrimSpace(string(payload))
		}
		return nil, &PeerError{Worker: url, Status: resp.StatusCode, Code: eb.Code, Msg: eb.Error}
	}
	var out RunResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, &PeerError{Worker: url, Err: fmt.Errorf("run response decode: %w", err)}
	}
	out.Body = append(out.Body, '\n')
	return &out, nil
}

// WorkerStatus is one roster entry in Status.
type WorkerStatus struct {
	URL       string    `json:"url"`
	Healthy   bool      `json:"healthy"`
	Synced    bool      `json:"synced"`
	LastSeen  time.Time `json:"last_seen,omitzero"`
	LastError string    `json:"last_error,omitempty"`
	RTTMicros int64     `json:"rtt_us"`
	// Runs counts the routed runs this worker answered.
	Runs uint64 `json:"runs"`
}

// Status is the GET /v1/cluster document, mirrored into /v1/stats. Every
// number reads the same cells /metrics exposes.
type Status struct {
	Workers   []WorkerStatus `json:"workers"`
	Runs      uint64         `json:"runs"`
	Failures  uint64         `json:"run_failures"`
	Failovers uint64         `json:"failovers"`
}

// Status reports the roster and the run counters.
func (r *Router) Status() Status {
	st := Status{
		Runs:      r.metrics.runs.Value(),
		Failures:  r.metrics.failures.Value(),
		Failovers: r.metrics.failovers.Value(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			URL:       w.url,
			Healthy:   w.healthy,
			Synced:    w.synced,
			LastSeen:  w.lastSeen,
			LastError: w.lastErr,
			RTTMicros: w.rtt.Microseconds(),
			Runs:      r.metrics.routed[w.url].Value(),
		})
	}
	return st
}
