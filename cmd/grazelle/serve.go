package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	grazelle "repro"
	"repro/internal/cluster"
	"repro/internal/qcache"
	"repro/internal/service"
	"repro/internal/vec"
)

// serve mode: `grazelle serve` turns the engine into a small JSON-over-HTTP
// service. All graph state lives in the store subsystem (grazelle.Store) and
// every query runs through internal/service; the handlers here are codecs:
// decode, call, map the outcome to a status, encode.
//
// Endpoints:
//
//	GET    /healthz             liveness probe
//	GET    /readyz              readiness: store open, rehydration not wedged
//	GET    /v1/stats            store load: graphs, bytes, admission counters
//	GET    /v1/apps             registered applications with parameter schemas
//	GET    /v1/graphs           list graphs (resident and cold)
//	POST   /v1/graphs           load or generate a graph
//	                            {"name":"t","dataset":"T","scale":1.0} or
//	                            {"name":"g","path":"/data/graph"} (file pair)
//	DELETE /v1/graphs/{name}    unregister a graph and delete its snapshot
//	POST   /v1/graphs/{name}/snapshot   re-persist a graph to --data-dir
//	POST   /v1/graphs/{name}/edges      apply a batch of streaming edge
//	                            mutations ({"ops":[{"src":1,"dst":2,
//	                            "weight":1.0},{"delete":true,"src":3,
//	                            "dst":4}]}); the batch is WAL-durable and
//	                            visible under a new version before the
//	                            response returns
//	POST   /v1/graphs/{name}/compact    fold the mutation overlay into a
//	                            fresh base snapshot (also runs in the
//	                            background past -compact-after)
//	POST   /v1/query            run an application
//	                            {"graph":"t","app":"pr","iters":16,
//	                             "root":0,"k":2,"timeout_ms":500,
//	                             "values":false,"no_cache":false}
//	POST   /v1/batch            run a list of queries; identical entries are
//	                            deduped, cache hits served immediately, and
//	                            the distinct misses run over one pinned
//	                            store handle ({"queries":[...]})
//	GET    /metrics             Prometheus text exposition: store, scheduler,
//	                            admission, cache, HTTP, run families
//	GET    /v1/runs             recent run records, newest first (?n= bounds)
//	GET    /v1/runs/{id}        one run's phase trace (404 once aged out)
//
// Every query response carries a run_id; the same id keys the run's record
// in /v1/runs/{id} and the structured request log. With -pprof-addr set, a
// second listener serves net/http/pprof — kept off the public address so
// profiling is never exposed by default.
//
// Any registered application (GET /v1/apps) is queryable by name. X-Cache on
// each query response reports hit/miss/coalesced/bypass; -cache-budget bounds
// the result cache (0 disables storage, coalescing stays), -cache-bypass
// disables the subsystem entirely, and "no_cache":true opts one request out.
//
// Admission rejections return 429 (queue full) with Retry-After; queries on
// unknown graphs 404; unloadable graph payloads 422; a degraded store
// (rehydration failing, shutting down) 503; a run past its deadline
// (timeout_ms, capped by -timeout) 504; a contained panic 500 — the server
// itself stays up (every handler runs under a recovery wrapper).
// SIGINT/SIGTERM drain in-flight requests before exiting.
//
// Mutations degrade rather than fail the instance: an overlay past
// -delta-budget returns 429 with Retry-After (compaction is already
// scheduled), a wedged delta log returns 503 with Retry-After while healing
// retries in the background, and reads keep serving the last good version
// through both. /readyz reports degraded while any delta log is wedged.
func runServe(args []string) error { return runServeRole("serve", args) }

// runServeRole is the shared body of the three serving roles. "serve" is the
// ordinary single-process service; "worker" is serve plus the private
// POST /internal/run endpoint the router drives (see cluster.go); "router"
// is serve with query execution delegated to a worker roster through the
// cluster tier.
func runServeRole(role string, args []string) error {
	fs := flag.NewFlagSet("grazelle "+role, flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8473", "listen address")
		threads     = fs.Int("n", 0, "worker threads in the shared pool (0 = GOMAXPROCS)")
		timeout     = fs.Duration("timeout", 30*time.Second, "maximum per-request timeout")
		dataset     = fs.String("d", "", "preload a dataset analog as graph \"default\"")
		scale       = fs.Float64("scale", 1.0, "dataset analog scale factor (with -d)")
		input       = fs.String("i", "", "preload a graph file pair as graph \"default\"")
		dataDir     = fs.String("data-dir", "", "snapshot directory (persist graphs across restarts)")
		memCap      = fs.Int64("mem-budget", 0, "resident graph memory budget in bytes (0 = unlimited)")
		inflight    = fs.Int("max-inflight", 0, "maximum concurrent queries (0 = unlimited)")
		maxQueue    = fs.Int("max-queue", 0, "queries allowed to wait beyond -max-inflight")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		runHist     = fs.Int("run-history", 128, "run trace records retained for /v1/runs")
		logLevel    = fs.String("log-level", "info", "request log level (debug logs probe/scrape requests too)")
		cacheBudget = fs.Int64("cache-budget", 256<<20, "query result cache byte budget (0 = cache nothing, coalescing stays on)")
		cacheBypass = fs.Bool("cache-bypass", false, "disable the query result cache and coalescing entirely")
		deltaCap    = fs.Int64("delta-budget", 64<<20, "per-graph un-compacted mutation overlay budget in bytes; past it writes get 429 until compaction (0 = unlimited)")
		compactAt   = fs.Int64("compact-after", 16<<20, "overlay bytes that trigger background compaction (0 = only explicit /compact)")
		incrLimit   = fs.Int("incremental-threshold", 4096, "maximum mutation-delta edge ops for incremental recompute from a cached predecessor result (0 = always recompute in full)")
	)
	var (
		workerList  *string
		healthEvery *time.Duration
	)
	if role == "router" {
		workerList = fs.String("workers", "", "comma-separated worker base URLs (required)")
		healthEvery = fs.Duration("health-interval", time.Second, "worker health-check and resync interval")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	var workerURLs []string
	if role == "router" {
		for _, u := range strings.Split(*workerList, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workerURLs = append(workerURLs, u)
			}
		}
		if len(workerURLs) == 0 {
			return errors.New("router requires -workers with at least one worker URL")
		}
	}

	st, err := grazelle.OpenStore(grazelle.StoreConfig{
		DataDir:           *dataDir,
		MemBudgetBytes:    *memCap,
		MaxInFlight:       *inflight,
		MaxQueue:          *maxQueue,
		Workers:           *threads,
		DeltaBudgetBytes:  *deltaCap,
		CompactAfterBytes: *compactAt,
		// Phase tracing is on for every serve-mode run: its cost is
		// phase-boundary-only and it feeds /v1/runs and the phase histograms.
		Options: grazelle.Options{Trace: true},
	})
	if err != nil {
		return err
	}
	defer st.Close()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	workers := *threads
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	log := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	// The store logs a full rebuild — a version first read with no
	// predecessor's layouts in memory — through the default logger: route it
	// into the same stream as the request logs.
	slog.SetDefault(log)
	cfg := service.Config{
		Store:                st,
		MaxTimeout:           *timeout,
		Workers:              workers,
		IncrementalThreshold: *incrLimit,
		RunHistory:           *runHist,
	}
	if !*cacheBypass {
		cfg.Cache = qcache.New(qcache.Config{Budget: *cacheBudget})
	}
	var rc cluster.RouterConfig
	if role == "router" {
		rc = cluster.RouterConfig{Workers: workerURLs, HealthInterval: *healthEvery}
	}
	srv := newServer(role, log, cfg, rc)
	if srv.cluster != nil {
		defer srv.cluster.Close()
	}

	switch {
	case *dataset != "":
		g, err := grazelle.GenerateDataset(*dataset, *scale)
		if err != nil {
			return err
		}
		if err := st.Add("default", g); err != nil {
			return err
		}
		if srv.cluster != nil {
			srv.cluster.RecordGraph(cluster.GraphSpec{Name: "default", Dataset: *dataset, Scale: *scale})
		}
	case *input != "":
		g, err := grazelle.LoadGraphPair(*input)
		if err != nil {
			return err
		}
		if err := st.Add("default", g); err != nil {
			return err
		}
		if srv.cluster != nil {
			srv.cluster.RecordGraph(cluster.GraphSpec{Name: "default", Path: *input})
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address is printed (not just logged) so callers binding
	// port 0 can discover the port. It must be the first address announced —
	// scripts take the first "http://" line as the service base URL.
	fmt.Printf("grazelle: serving on http://%s\n", ln.Addr())
	hs := &http.Server{Handler: srv.mux(), ReadHeaderTimeout: 10 * time.Second}
	if srv.cluster != nil {
		srv.cluster.Start()
	}

	// Profiling stays on its own opt-in listener so it is never reachable
	// through the public address.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("grazelle: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go http.Serve(pln, pmux)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		fmt.Println("grazelle: shut down")
		return nil
	}
}

const maxBodyBytes = service.MaxBodyBytes

// server adapts HTTP to the store (graph admin) and the service (queries).
// cache is the service's result cache, kept here for /v1/stats; nil means
// -cache-bypass.
type server struct {
	store *grazelle.Store
	svc   *service.Service
	cache *qcache.Cache
	log   *slog.Logger
	// cluster, when non-nil, makes this process a router: the service's
	// runner is runOnCluster, one worker of the roster, instead of the local
	// engine. clusterWorker, when non-nil, makes it a worker: the private
	// /internal/run endpoint is exposed. Both nil is the ordinary
	// single-process serve mode.
	cluster       *cluster.Router
	clusterWorker *cluster.Worker
}

// newServer wires one serving role over an open store: the router gets a
// cluster.Router over rc's roster as the service's runner, the worker the
// private /internal/run codec.
func newServer(role string, log *slog.Logger, cfg service.Config, rc cluster.RouterConfig) *server {
	s := &server{store: cfg.Store, cache: cfg.Cache, log: log}
	if role == "router" {
		rc.Registry, rc.Logger = s.store.Metrics(), log
		s.cluster = cluster.NewRouter(rc)
		cfg.Remote = s.runOnCluster
	}
	s.svc = service.New(cfg)
	if role == "worker" {
		s.clusterWorker = cluster.NewWorker(s.svc)
	}
	return s
}

func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	handle("GET /readyz", s.handleReady)
	handle("GET /metrics", s.store.Metrics().Handler().ServeHTTP)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/apps", s.handleApps)
	handle("GET /v1/runs", s.handleRuns)
	handle("GET /v1/runs/{id}", s.handleRunByID)
	handle("GET /v1/graphs", s.handleListGraphs)
	handle("POST /v1/graphs", s.handleAddGraph)
	handle("DELETE /v1/graphs/{name}", s.handleDeleteGraph)
	handle("POST /v1/graphs/{name}/snapshot", s.handleSnapshotGraph)
	handle("POST /v1/graphs/{name}/edges", s.handleMutateEdges)
	handle("POST /v1/graphs/{name}/compact", s.handleCompactGraph)
	handle("POST /v1/query", s.handleQuery)
	handle("POST /v1/batch", s.handleBatch)
	if s.clusterWorker != nil {
		handle("POST /internal/run", s.clusterWorker.HandleRun)
	}
	if s.cluster != nil {
		handle("GET /v1/cluster", s.handleClusterStatus)
	}
	return s.recoverMiddleware(mux)
}

// recoverMiddleware contains handler panics: the failing request gets a 500
// JSON error, the process and every other connection stay up, and the
// handler's own defers (admission release, handle close) have already run
// during unwinding. Without it net/http kills the connection mid-response
// and a panic in pre-handler state could leak slots.
func (s *server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.log.Error("handler panic",
					"method", r.Method,
					"path", r.URL.Path,
					"panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()))
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleReady is the readiness probe: 200 while the store is open and
// healthy, 503 once it is closed or rehydration is wedged. Liveness
// (/healthz) stays 200 either way — a degraded instance should be drained,
// not restarted.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Ready(); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	// The cache and cluster blocks read the same counter cells /metrics
	// exposes, so the views cannot drift.
	out := struct {
		grazelle.StoreStats
		// Kernel is this process's rank-sum gather kernel; a routed run
		// reports its worker's in the run record.
		Kernel  string          `json:"kernel"`
		Cache   *qcache.Stats   `json:"cache,omitempty"`
		Cluster *cluster.Status `json:"cluster,omitempty"`
	}{StoreStats: s.store.Stats(), Kernel: vec.Kernel()}
	if s.cache != nil {
		cs := s.cache.Stats()
		out.Cache = &cs
	}
	if s.cluster != nil {
		st := s.cluster.Status()
		out.Cluster = &st
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.store.List()})
}

func (s *server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req struct {
		Name    string  `json:"name"`
		Dataset string  `json:"dataset"`
		Scale   float64 `json:"scale"`
		Path    string  `json:"path"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing graph name"))
		return
	}
	if s.cluster != nil {
		// Catalog writes serialize against cluster execution per graph, so a
		// routed run never straddles a version change on its replica.
		l := s.cluster.LockGraph(req.Name)
		l.Lock()
		defer l.Unlock()
	}
	var g *grazelle.Graph
	var err error
	switch {
	case req.Dataset != "":
		if req.Scale == 0 {
			req.Scale = 1.0
		}
		g, err = grazelle.GenerateDataset(req.Dataset, req.Scale)
	case req.Path != "":
		g, err = grazelle.LoadGraphPair(req.Path)
	default:
		writeError(w, http.StatusBadRequest, errors.New("one of dataset or path is required"))
		return
	}
	if err != nil {
		// The request was well-formed but the named payload cannot be turned
		// into a graph (unknown dataset, unreadable or corrupt file).
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if err := s.store.Add(req.Name, g); err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, grazelle.ErrStoreClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	if s.cluster != nil {
		s.cluster.GraphAdded(cluster.GraphSpec{
			Name: req.Name, Dataset: req.Dataset, Scale: req.Scale, Path: req.Path,
		})
	}
	for _, info := range s.store.List() {
		if info.Name == req.Name {
			writeJSON(w, http.StatusOK, info)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": req.Name})
}

func (s *server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.cluster != nil {
		l := s.cluster.LockGraph(name)
		l.Lock()
		defer l.Unlock()
	}
	if err := s.store.Delete(name); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, grazelle.ErrGraphNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	if s.cluster != nil {
		s.cluster.GraphDeleted(name)
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *server) handleSnapshotGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.store.Snapshot(name); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, grazelle.ErrGraphNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"snapshotted": name})
}

// handleMutateEdges applies one batch of streaming edge mutations. The
// response is written only after the batch is WAL-durable and published
// under a new version, so a 200 means the mutation survives a crash. The
// degradation ladder maps to statuses clients can act on: overlay over
// budget 429 + Retry-After (compaction already scheduled), delta log wedged
// 503 + Retry-After (healing retries in the background, reads still serve),
// raced a replace/delete 409 (retry against the new graph if still
// meaningful), malformed ops 400.
func (s *server) handleMutateEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req struct {
		Ops []struct {
			Delete bool    `json:"delete"`
			Src    uint32  `json:"src"`
			Dst    uint32  `json:"dst"`
			Weight float32 `json:"weight"`
		} `json:"ops"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty ops batch"))
		return
	}
	ops := make([]grazelle.EdgeOp, len(req.Ops))
	for i, op := range req.Ops {
		ops[i] = grazelle.EdgeOp{Delete: op.Delete, Src: op.Src, Dst: op.Dst, Weight: op.Weight}
	}
	if s.cluster != nil {
		l := s.cluster.LockGraph(name)
		l.Lock()
		defer l.Unlock()
	}
	seq, version, err := s.store.ApplyEdges(name, ops)
	if err != nil {
		status, retryAfter := mutationStatus(err)
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		writeError(w, status, err)
		return
	}
	if s.cluster != nil {
		s.cluster.EdgesApplied(name, ops)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":   name,
		"applied": len(ops),
		"seq":     seq,
		"version": version,
	})
}

// handleCompactGraph folds the graph's mutation overlay into a fresh base
// snapshot on demand. Compaction is bit-preserving, so this is always safe;
// it mainly serves tests and operators who want the overlay drained now
// rather than at the -compact-after threshold.
func (s *server) handleCompactGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.store.Compact(name); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, grazelle.ErrGraphNotFound):
			status = http.StatusNotFound
		case errors.Is(err, grazelle.ErrStoreClosed):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"compacted": name})
}

// mutationStatus maps an ApplyEdges failure to (status, Retry-After). The
// two retryable degradations carry Retry-After so well-behaved writers back
// off instead of hammering: budget pressure clears on the next compaction
// (fast), a wedged log clears on a successful heal rewrite (slower).
func mutationStatus(err error) (status int, retryAfter string) {
	var be *grazelle.DeltaBudgetError
	var we *grazelle.WALWedgedError
	var ve *grazelle.VertexIDError
	switch {
	case errors.As(err, &ve):
		return http.StatusBadRequest, ""
	case errors.As(err, &be):
		return http.StatusTooManyRequests, "1"
	case errors.As(err, &we):
		return http.StatusServiceUnavailable, "2"
	case errors.Is(err, grazelle.ErrMutationConflict):
		return http.StatusConflict, ""
	case errors.Is(err, grazelle.ErrGraphNotFound):
		return http.StatusNotFound, ""
	case errors.Is(err, grazelle.ErrStoreClosed):
		return http.StatusServiceUnavailable, ""
	default:
		return http.StatusBadRequest, ""
	}
}

// handleApps enumerates the registered applications with their parameter
// schemas — the same registry the query path dispatches through, so the
// listing cannot drift from what is runnable.
func (s *server) handleApps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"apps": grazelle.Apps()})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var q service.Query
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, outcome, err := s.svc.Execute(r.Context(), q)
	s.writeQueryResult(w, res, outcome, err)
}

// writeQueryResult finishes a single-query response: run-ID and cache-state
// headers, then the cached/computed payload or the mapped error.
func (s *server) writeQueryResult(w http.ResponseWriter, res qcache.Result, outcome service.Outcome, err error) {
	if res.RunID != "" {
		w.Header().Set("X-Run-Id", res.RunID)
	}
	if outcome != "" {
		w.Header().Set("X-Cache", string(outcome))
	}
	if err != nil {
		status := queryStatus(err)
		var ue *cluster.UnavailableError
		if status == http.StatusTooManyRequests || errors.As(err, &ue) {
			// Both clear on their own: admission pressure drains, and the
			// cluster health loop repairs or resyncs workers.
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	writePayload(w, http.StatusOK, res.Payload)
}

// Sentinel errors for the /v1/runs endpoints.
var (
	errBadRunCount = errors.New("bad n: want a nonnegative integer")
	errRunNotFound = errors.New("run not found (aged out of the trace ring or never existed)")
)

// queryStatus maps any failure on the query path — admission, version
// lookup, acquire, or the run itself — to an HTTP status: overload 429,
// unknown graph 404, a degraded store 503, a deadline 504, a contained panic
// 500, anything else 400. Coalesced followers share the leader's error, so
// the mapping depends only on the error value, never on whose context ran
// the compute.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, grazelle.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, grazelle.ErrStoreClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, grazelle.ErrGraphNotFound):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, grazelle.ErrMutationConflict):
		// The cluster path re-checks the graph version under the per-graph
		// lock; losing that race is retryable, not a client error.
		return http.StatusConflict
	}
	// Cluster-tier failures: no placement possible is a degraded-service 503
	// (with Retry-After), a worker's own verdict keeps its status when it is
	// one the client can act on, and everything else a worker did wrong is a
	// 502 — the upstream, not this service, failed.
	var ue *cluster.UnavailableError
	var cpe *cluster.PeerError
	switch {
	case errors.As(err, &ue):
		return http.StatusServiceUnavailable
	case errors.As(err, &cpe):
		switch {
		case cpe.Status == http.StatusTooManyRequests:
			return http.StatusTooManyRequests
		case cpe.Status == http.StatusGatewayTimeout || cpe.Code == "timeout":
			return http.StatusGatewayTimeout
		default:
			return http.StatusBadGateway
		}
	}
	var pe *grazelle.PanicError
	if errors.As(err, &pe) {
		return http.StatusInternalServerError
	}
	var ce *grazelle.CorruptSnapshotError
	var re *grazelle.RehydrateError
	if errors.As(err, &ce) || errors.As(err, &re) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writePayload writes an already-serialized JSON body (the cache's unit of
// storage) verbatim.
func writePayload(w http.ResponseWriter, status int, payload []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(payload); err != nil {
		fmt.Fprintln(os.Stderr, "grazelle: write response:", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "grazelle: encode response:", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
