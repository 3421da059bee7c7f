package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	grazelle "repro"
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
	// Partitions is the coordinator partition count runs execute with
	// (display default for Status; Execute takes it per RunSpec).
	Partitions int
	// HealthInterval paces the /readyz + resync loop (default 1s).
	HealthInterval time.Duration
	// RoundTimeout bounds one exchange round before the run is declared
	// wedged (default DefaultRoundTimeout).
	RoundTimeout time.Duration
	// Registry receives the grazelle_cluster_* families (nil = private
	// registry, for tests).
	Registry *obs.Registry
	// Logger receives health and resync events (nil = discard).
	Logger *slog.Logger
}

// workerState is one roster entry's view from the router.
type workerState struct {
	url     string
	healthy bool
	synced  bool
	lastSeen time.Time
	lastErr string
	rtt     time.Duration
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
// replaying it through the worker's public API, scatter-gathers runs with
// the exchange Hub as the per-iteration barrier, and fails runs over to
// surviving replicas when a worker dies mid-run.
type Router struct {
	cfg          RouterConfig
	hub          *Hub
	client       *http.Client // runs + catalog broadcast; deadline comes from ctx
	healthClient *http.Client
	log          *slog.Logger
	metrics      *routerMetrics

	mu          sync.Mutex
	workers     []*workerState
	catalog     map[string]*catalogEntry
	catalogGen  uint64
	exchangeURL string
	locks       map[string]*sync.RWMutex

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewRouter creates a router over a static worker roster. Call
// SetExchangeURL once the serving address is known, then Start.
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
	r.hub = &Hub{
		RoundTimeout: cfg.RoundTimeout,
		OnRound:      r.metrics.rounds.Inc,
		PeerTraffic:  r.metrics.peerTraffic,
		PeerWait:     r.metrics.peerWaited,
		runs:         make(map[string]*hubRun),
	}
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

// SetExchangeURL tells the router where workers should post frontier
// segments (its own public address + the exchange route).
func (r *Router) SetExchangeURL(url string) {
	r.mu.Lock()
	r.exchangeURL = url
	r.mu.Unlock()
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

// HandleExchange is the hub's HTTP adapter (POST /internal/exchange).
func (r *Router) HandleExchange(w http.ResponseWriter, req *http.Request) {
	var p ExchangePost
	if err := json.NewDecoder(req.Body).Decode(&p); err != nil {
		writeClusterError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	reply, err := r.hub.Post(req.Context(), &p)
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownRun):
			writeClusterError(w, http.StatusNotFound, "unknown_run", err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeClusterError(w, http.StatusServiceUnavailable, "cancelled", err)
		default:
			writeClusterError(w, http.StatusConflict, "aborted", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// RunResult is a completed cluster execution, assembled from the primary
// worker's response plus the hub's per-partition accounting.
type RunResult struct {
	Iterations     int
	PullIterations int
	PushIterations int
	Mode           string
	Partitions     int
	ElapsedMS      int64
	ExchangeBytes  int64
	Summary        map[string]json.RawMessage
	Values         json.RawMessage
	PartBytes      []int64
	Workers        []string
}

// Execute runs one query across the cluster: place partitions over the
// available replicas, scatter the run, gather through the exchange barrier,
// and — when a replica fails mid-run — re-place once onto the survivors.
func (r *Router) Execute(ctx context.Context, runID string, spec RunSpec) (*RunResult, error) {
	r.metrics.runs.Inc()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		avail := r.available()
		if len(avail) == 0 {
			r.metrics.failures.Inc()
			return nil, &UnavailableError{Reason: "no healthy synced workers", Cause: lastErr}
		}
		res, err := r.runOnce(ctx, fmt.Sprintf("%s.%d", runID, attempt), spec, avail)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil || !r.noteFailure(err) {
			r.metrics.failures.Inc()
			return nil, err
		}
		r.metrics.failovers.Inc()
		r.log.Warn("cluster run failing over", "run", runID, "error", err)
	}
	r.metrics.failures.Inc()
	return nil, &UnavailableError{Reason: "failover exhausted", Cause: lastErr}
}

func (r *Router) available() []*workerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.syncedLocked()
}

// noteFailure classifies one run failure, updates roster state, and reports
// whether re-placement is worth attempting.
func (r *Router) noteFailure(err error) bool {
	var pe *PeerError
	if !errors.As(err, &pe) {
		return false
	}
	switch {
	case pe.Code == "not_found" || pe.Code == "out_of_sync":
		// The replica trails the catalog: pull it from rotation for repair
		// and run on the others.
		r.markWorker(pe.Worker, func(w *workerState) { w.synced = false; w.lastErr = pe.Error() })
		return true
	case pe.Status == 0 || pe.Code == "wedged":
		// Unreachable or wedged mid-exchange: down until /readyz says
		// otherwise.
		r.markWorker(pe.Worker, func(w *workerState) { w.healthy = false; w.synced = false; w.lastErr = pe.Error() })
		return true
	case pe.Code == "exchange":
		// An abort victim or a transient barrier failure (failpoints land
		// here): the worker itself is fine, just retry.
		return true
	default:
		// Deterministic verdicts — an engine error (Code "run") repeats on
		// identical replicas, overload and timeouts fail identically under
		// the same deadline — so a retry only wastes the budget.
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

func (r *Router) runOnce(ctx context.Context, hubID string, spec RunSpec, avail []*workerState) (*RunResult, error) {
	parts := spec.Partitions
	if parts < 1 {
		parts = 1
	}
	owners := make(map[string][]int)
	var participants []*workerState
	for p := 0; p < parts; p++ {
		w := avail[p%len(avail)]
		if _, ok := owners[w.url]; !ok {
			participants = append(participants, w)
		}
		owners[w.url] = append(owners[w.url], p)
	}
	primaryURL := participants[0].url
	words := (spec.Vertices + 63) / 64

	r.hub.Register(hubID, owners, parts, words)
	defer r.hub.Unregister(hubID)
	r.metrics.fanout.Observe(float64(len(participants)))

	r.mu.Lock()
	exchangeURL := r.exchangeURL
	r.mu.Unlock()

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		worker string
		resp   *RunResponse
		err    *PeerError
	}
	results := make(chan outcome, len(participants))
	for _, w := range participants {
		req := RunRequest{
			RunID:       hubID,
			Worker:      w.url,
			ExchangeURL: exchangeURL,
			Graph:       spec.Graph,
			App:         spec.App,
			Iters:       spec.Iters,
			Root:        spec.Root,
			K:           spec.K,
			Partitions:  parts,
			Owned:       owners[w.url],
			Vertices:    spec.Vertices,
			Edges:       spec.Edges,
			Primary:     w.url == primaryURL,
			Values:      spec.Values,
			TimeoutMS:   spec.TimeoutMS,
		}
		go func(url string) {
			resp, err := r.postRun(cctx, url, &req)
			results <- outcome{worker: url, resp: resp, err: err}
		}(w.url)
	}

	var primary *RunResponse
	var failures []*PeerError
	for range participants {
		o := <-results
		if o.err != nil {
			if len(failures) > 0 && o.err.Status == 0 && errors.Is(o.err.Err, context.Canceled) {
				// Our own cancel() below cut this post short: the worker
				// did nothing wrong, and a transport error here would
				// outrank the failure that caused the teardown and mark a
				// healthy replica down.
				continue
			}
			failures = append(failures, o.err)
			// Tear the whole run down: peers blocked at the barrier get the
			// abort instead of waiting out the round timeout.
			r.hub.Abort(hubID, o.err)
			cancel()
			continue
		}
		if o.worker == primaryURL {
			primary = o.resp
		}
	}
	if len(failures) > 0 {
		// Wedged peers detected by the hub outrank the secondary errors their
		// stall caused in everyone else.
		if lag := r.hub.Laggards(hubID); len(lag) > 0 {
			return nil, &PeerError{Worker: lag[0], Code: "wedged",
				Err: fmt.Errorf("cluster: exchange round wedged waiting on %v", lag)}
		}
		best := failures[0]
		for _, f := range failures[1:] {
			if failureRank(f) > failureRank(best) {
				best = f
			}
		}
		return nil, best
	}
	if primary == nil {
		return nil, fmt.Errorf("cluster: run %s completed without a primary response", hubID)
	}
	return &RunResult{
		Iterations:     primary.Iterations,
		PullIterations: primary.PullIterations,
		PushIterations: primary.PushIterations,
		Mode:           primary.Mode,
		Partitions:     primary.Partitions,
		ElapsedMS:      primary.ElapsedMS,
		ExchangeBytes:  primary.ExchangeBytes,
		Summary:        primary.Summary,
		Values:         primary.Values,
		PartBytes:      r.hub.PartBytes(hubID),
		Workers:        workerURLs(participants),
	}, nil
}

// failureRank orders concurrent per-worker failures by blame: a transport
// error names the actual casualty, a worker-originated verdict names a
// faulty replica, and an exchange abort is usually collateral damage.
func failureRank(pe *PeerError) int {
	switch {
	case pe.Status == 0:
		return 3
	case pe.Code != "exchange" && pe.Code != "cancelled":
		return 2
	default:
		return 1
	}
}

func workerURLs(ws []*workerState) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.url
	}
	return out
}

// postRun sends one /internal/run request and decodes the outcome.
func (r *Router) postRun(ctx context.Context, url string, rr *RunRequest) (*RunResponse, *PeerError) {
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
	BytesIn   uint64    `json:"exchange_bytes_in"`
	BytesOut  uint64    `json:"exchange_bytes_out"`
}

// PlacementEntry maps one partition to the worker currently authoritative
// for its frontier words.
type PlacementEntry struct {
	Partition int    `json:"partition"`
	Worker    string `json:"worker,omitempty"`
}

// Status is the GET /v1/cluster document, mirrored into /v1/stats. Every
// number reads the same cells /metrics exposes.
type Status struct {
	Partitions     int              `json:"partitions"`
	Workers        []WorkerStatus   `json:"workers"`
	Placement      []PlacementEntry `json:"placement"`
	Runs           uint64           `json:"runs"`
	Failures       uint64           `json:"run_failures"`
	Failovers      uint64           `json:"failovers"`
	ExchangeRounds uint64           `json:"exchange_rounds"`
}

// Status reports the roster, the current placement table, and the run
// counters.
func (r *Router) Status() Status {
	r.mu.Lock()
	st := Status{
		Partitions:     r.cfg.Partitions,
		Runs:           r.metrics.runs.Value(),
		Failures:       r.metrics.failures.Value(),
		Failovers:      r.metrics.failovers.Value(),
		ExchangeRounds: r.metrics.rounds.Value(),
	}
	var avail []*workerState
	for _, w := range r.workers {
		ws := WorkerStatus{
			URL:       w.url,
			Healthy:   w.healthy,
			Synced:    w.synced,
			LastSeen:  w.lastSeen,
			LastError: w.lastErr,
			RTTMicros: w.rtt.Microseconds(),
		}
		if c := r.metrics.peerIn[w.url]; c != nil {
			ws.BytesIn = c.Value()
		}
		if c := r.metrics.peerOut[w.url]; c != nil {
			ws.BytesOut = c.Value()
		}
		st.Workers = append(st.Workers, ws)
		if w.healthy && w.synced {
			avail = append(avail, w)
		}
	}
	r.mu.Unlock()
	for p := 0; p < st.Partitions; p++ {
		pe := PlacementEntry{Partition: p}
		if len(avail) > 0 {
			pe.Worker = avail[p%len(avail)].url
		}
		st.Placement = append(st.Placement, pe)
	}
	return st
}
