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
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// serve mode: `grazelle serve` turns the engine into a small JSON-over-HTTP
// service. All graph state lives in the store subsystem (grazelle.Store):
// named graphs with refcounted handles (delete/replace never disturbs
// in-flight queries), snapshot persistence under --data-dir (graphs reload
// across restarts), a resident-memory budget with LRU eviction, and
// admission control bounding concurrent queries. The HTTP layer here is a
// thin protocol adapter: decode, validate, acquire, run, encode.
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
//	                            admission, watchdog, cache, HTTP, run families
//	GET    /v1/runs             recent run records, newest first (?n= bounds)
//	GET    /v1/runs/{id}        one run's phase trace (404 once aged out)
//
// Every query response carries a run_id; the same id keys the run's record
// in /v1/runs/{id} and the structured request log. With -pprof-addr set, a
// second listener serves net/http/pprof — kept off the public address so
// profiling is never exposed by default.
//
// Apps are resolved through the registry (internal/apps): any registered
// application — pr, wpr, cc, bfs, sssp, tc, kcore, lp, ppr, or an
// out-of-tree registration — is queryable by name, with GET /v1/apps
// enumerating names and parameter schemas. Request fields an app's schema
// ignores are zeroed before cache-key derivation, so requests differing
// only in ignored fields share one cache entry.
//
// Query results are cached (internal/qcache) keyed by (graph, store
// version, app, canonical params) — sound because engines are
// bit-deterministic and store versions are never reused. Concurrent
// identical queries coalesce onto one run and one admission slot. X-Cache
// on each query response reports hit/miss/coalesced/bypass. -cache-budget
// bounds the cache (0 disables storage, coalescing stays), -cache-bypass
// disables the subsystem entirely, and "no_cache":true opts one request
// out. Replacing or deleting a graph invalidates its entries via the
// store's version-retirement hook.
//
// Admission rejections return 429 (queue full) with Retry-After; queries on
// unknown graphs 404; unloadable graph payloads 422; a degraded store
// (rehydration failing, shutting down) or a watchdog-killed run 503;
// timeouts 504; a contained panic 500 — the server itself stays up (every
// handler runs under a recovery wrapper). SIGINT/SIGTERM drain in-flight
// requests before exiting.
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
		softLimit   = fs.Duration("soft-limit", 0, "watchdog soft run limit: slower queries are counted in /v1/stats (0 = off)")
		hardLimit   = fs.Duration("hard-limit", 0, "watchdog hard run limit: slower queries are cancelled with 503 (0 = off)")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		runHist     = fs.Int("run-history", 128, "run trace records retained for /v1/runs")
		logLevel    = fs.String("log-level", "info", "request log level (debug logs probe/scrape requests too)")
		cacheBudget = fs.Int64("cache-budget", 256<<20, "query result cache byte budget (0 = cache nothing, coalescing stays on)")
		cacheBypass = fs.Bool("cache-bypass", false, "disable the query result cache and coalescing entirely")
		partitions  = fs.Int("partitions", 0, "run queries through the partitioned coordinator with this many partitions (0 or 1 = monolithic; output is bit-identical)")
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
		SoftRunLimit:      *softLimit,
		HardRunLimit:      *hardLimit,
		DeltaBudgetBytes:  *deltaCap,
		CompactAfterBytes: *compactAt,
		// Phase tracing is on for every serve-mode run: its cost is
		// phase-boundary-only and it feeds /v1/runs and the phase histograms.
		Options: grazelle.Options{Trace: true, Partitions: *partitions},
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
	srv := &server{
		store:         st,
		maxTimeout:    *timeout,
		workers:       workers,
		incrThreshold: *incrLimit,
		log:           slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
		ring:          obs.NewTraceRing(*runHist),
		metrics:       newServeMetrics(st.Metrics()),
	}
	// The store explains a full rebuild on a version's first read through the
	// default logger: route it into the same stream as the request logs.
	slog.SetDefault(srv.log)
	if !*cacheBypass {
		srv.cache = qcache.New(qcache.Config{Budget: *cacheBudget})
		// The cache's families live in the store's registry and its entries
		// die with their store version: /metrics, /v1/stats, and the graph
		// lifecycle all stay in lockstep. Retirement is reason-aware: mutate
		// and compact are warm (payloads die, seed candidates survive to
		// warm-start recomputes on the successor); replace and delete are
		// hard (the lineage is over, seeds die too).
		srv.cache.RegisterMetrics(st.Metrics())
		st.OnRetireReason(func(name string, version uint64, reason grazelle.RetireReason) {
			warm := reason == grazelle.RetireMutate || reason == grazelle.RetireCompact
			srv.cache.RetireVersion(name, version, warm)
		})
	}

	switch role {
	case "worker":
		srv.clusterWorker = cluster.NewWorker(st)
	case "router":
		srv.cluster = cluster.NewRouter(cluster.RouterConfig{
			Workers:        workerURLs,
			HealthInterval: *healthEvery,
			Registry:       st.Metrics(),
			Logger:         srv.log,
		})
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

// maxBodyBytes bounds request bodies; graph-load and query requests are a
// few hundred bytes of JSON.
const maxBodyBytes = 1 << 20

// server adapts HTTP to the store. Beyond observability state (the
// run-trace ring, metric handles, request logger) it owns the query result
// cache; nil cache means -cache-bypass.
type server struct {
	store      *grazelle.Store
	cache      *qcache.Cache
	maxTimeout time.Duration
	workers    int
	// incrThreshold caps the mutation-delta size (edge ops) incremental
	// recompute will seed across; 0 disables the path.
	incrThreshold int
	log           *slog.Logger
	ring          *obs.TraceRing
	metrics       *serveMetrics
	// cluster, when non-nil, makes this process a router: every query runs
	// through Execute on one worker of the roster instead of the local
	// engine. clusterWorker, when non-nil, makes it a worker: the private
	// /internal/run endpoint is exposed. Both nil is the ordinary
	// single-process serve mode.
	cluster       *cluster.Router
	clusterWorker *cluster.Worker
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
		Cache   *qcache.Stats   `json:"cache,omitempty"`
		Cluster *cluster.Status `json:"cluster,omitempty"`
	}{StoreStats: s.store.Stats()}
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
	switch {
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

// queryRequest is the decoded body of /v1/query and each /v1/batch entry.
// Iters, Root, and K are the universal parameter fields; each app reads the
// subset its registered schema declares and the rest are zeroed out of the
// cache key.
type queryRequest struct {
	Graph     string `json:"graph"`
	App       string `json:"app"`
	Iters     int    `json:"iters"`
	Root      uint32 `json:"root"`
	K         int    `json:"k"`
	TimeoutMS int64  `json:"timeout_ms"`
	Values    bool   `json:"values"`
	// NoCache opts this request out of the result cache and coalescing.
	NoCache bool `json:"no_cache"`
}

// normalize validates the app against the registry and rewrites the
// parameter fields to their canonical form: fields the app's schema ignores
// are zeroed, used fields left unset get the registered defaults.
func (q *queryRequest) normalize() error {
	if q.Graph == "" {
		q.Graph = "default"
	}
	ent, err := apps.Lookup(q.App)
	if err != nil {
		return err
	}
	p := ent.Normalize(apps.Params{Iters: q.Iters, Root: q.Root, K: q.K})
	q.Iters, q.Root, q.K = p.Iters, p.Root, p.K
	return nil
}

// canonicalQuery renders a (normalized) request's canonical parameter
// string from the app's registered schema, plus the values flag — which is
// a response-shape parameter, not an app parameter, so it is appended here
// rather than registered.
func canonicalQuery(q queryRequest) string {
	ent, err := apps.Lookup(q.App)
	if err != nil {
		// normalize validated the app already; an unknown app here means the
		// caller skipped it, and a unique key degrades to cache misses.
		return fmt.Sprintf("app=%s&values=%t", q.App, q.Values)
	}
	p := ent.Canonical(apps.Params{Iters: q.Iters, Root: q.Root, K: q.K})
	return fmt.Sprintf("%s&values=%t", p, q.Values)
}

// cacheKey builds the request's cache key from the graph's current store
// version. Timeout is deliberately absent: it shapes how long the caller
// waits, not what the result is.
func (s *server) cacheKey(q queryRequest) (qcache.Key, error) {
	version, err := s.store.Version(q.Graph)
	if err != nil {
		return qcache.Key{}, err
	}
	return qcache.Key{
		Graph:   q.Graph,
		Version: version,
		App:     q.App,
		Params:  canonicalQuery(q),
	}, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout := s.maxTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if s.cache == nil || req.NoCache {
		res, err := s.executeQuery(ctx, req)
		s.writeQueryResult(w, res, "bypass", err)
		return
	}
	key, err := s.cacheKey(req)
	if err != nil {
		writeError(w, acquireStatus(err), err)
		return
	}
	res, outcome, err := s.cache.Do(ctx, key, func(cctx context.Context) (qcache.Result, error) {
		return s.executeQuery(cctx, req)
	})
	s.writeQueryResult(w, res, outcome.String(), err)
}

// writeQueryResult finishes a single-query response: run-ID and cache-state
// headers, then the cached/computed payload or the mapped error.
func (s *server) writeQueryResult(w http.ResponseWriter, res qcache.Result, cacheState string, err error) {
	if res.RunID != "" {
		w.Header().Set("X-Run-Id", res.RunID)
	}
	w.Header().Set("X-Cache", cacheState)
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

// executeQuery is the full uncached query path: admission, graph acquire,
// then the engine run. It is the compute function a cache flight's leader
// runs — coalesced identical requests therefore consume exactly one
// admission slot, and a promoted leader re-admits under its own context.
func (s *server) executeQuery(ctx context.Context, req queryRequest) (qcache.Result, error) {
	// Admission first: a rejected query must not touch graph state. 429
	// tells well-behaved clients to back off and retry.
	release, err := s.store.Admit(ctx)
	if err != nil {
		return qcache.Result{}, err
	}
	defer release()

	// Fault-injection site for chaos tests: a panic here exercises the
	// recovery middleware with an admission slot held.
	if err := fault.Inject("serve/handler"); err != nil {
		panic(err)
	}

	h, err := s.store.Acquire(req.Graph)
	if err != nil {
		return qcache.Result{}, err
	}
	defer h.Close()
	return s.runOnHandle(ctx, h, req)
}

// runOnHandle runs one query over an already-acquired handle, records the
// run (metrics + trace ring), and serializes the response payload. The
// returned Result carries the handle's version so the cache indexes it
// under the version it was actually computed on.
func (s *server) runOnHandle(ctx context.Context, h *grazelle.StoreHandle, req queryRequest) (qcache.Result, error) {
	// Router role: the local store holds the catalog and versions, but the
	// compute itself runs on one worker of the roster. Branching
	// here (not in handleQuery) keeps the cache, coalescing, and /v1/batch
	// paths identical across roles.
	if s.cluster != nil {
		return s.runOnCluster(ctx, h, req)
	}
	eng := h.Engine()

	// Watchdog tracking: a run past -hard-limit is cancelled through ctx.
	ctx, done := s.store.TrackRun(ctx)
	defer done()

	runID := nextRunID()
	start := time.Now()

	p := grazelle.Params{Iters: req.Iters, Root: req.Root, K: req.K}
	var (
		res         *grazelle.AppResult
		err         error
		ran         bool
		incremental bool
		seedVersion uint64
		seedKey     string
	)
	// Incremental recompute: when this app can warm-start, a predecessor
	// result is retained for these exact params, and the connecting mutation
	// delta is recoverable and under -incremental-threshold, seed the run
	// from the predecessor instead of cold-starting. Any failure inside
	// degrades to the full recompute below, with the fallback counted.
	ent, entErr := apps.Lookup(req.App)
	canSeed := entErr == nil && ent.IncrementalSeed != nil && s.cache != nil && !req.NoCache
	if canSeed {
		seedKey = ent.Canonical(apps.Params{Iters: req.Iters, Root: req.Root, K: req.K})
	}
	if canSeed && s.incrThreshold > 0 {
		if sv, props, ok := s.cache.SeedFor(req.Graph, req.App, seedKey); ok && sv < h.Version() {
			if d, dok := s.store.DeltaBetween(req.Graph, sv, h.Version()); dok && len(d.Ops) <= s.incrThreshold {
				var seeded bool
				res, seeded, err = eng.RunIncremental(ctx, req.App, p, grazelle.SeedSpec{
					PredProps:       props,
					Ops:             d.Ops,
					FromEdges:       d.FromEdges,
					FromCountsKnown: d.FromCountsKnown,
				})
				ran = true
				if seeded {
					incremental, seedVersion = true, sv
					s.cache.CountSeedUse()
					s.metrics.incrementalSeeded.Inc()
				} else {
					s.metrics.incrementalFallback.Inc()
				}
			}
		}
	}
	if !ran {
		res, err = eng.Run(ctx, req.App, p)
	}
	var stats grazelle.Stats
	if res != nil {
		stats = res.Stats
	}
	// Record the run — success or failure — before responding: the wall
	// time feeds the run histograms and the trace lands in the ring where
	// GET /v1/runs/{id} can replay it.
	wall := time.Since(start)
	s.metrics.observeRun(wall, stats.Phases, stats.TraceDropped)
	s.metrics.exchangeShmem.Add(uint64(stats.ExchangeBytes))
	rec := obs.RunRecord{
		ID:    runID,
		Graph: req.Graph,
		App:   req.App,
		Start: start,
		Wall:  wall,
		Trace: obs.RunTrace{
			Phases:     stats.Phases,
			Directions: stats.Directions,
			Partitions: stats.PartitionStats,
			Dropped:    stats.TraceDropped,
		},
		Workers:     s.workers,
		Iters:       stats.Iterations,
		Vertices:    int64(h.Graph().NumVertices()),
		Edges:       int64(h.Graph().NumEdges()),
		Mode:        stats.Mode,
		Partitions:  stats.Partitions,
		Incremental: incremental,
		SeedVersion: seedVersion,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	s.ring.Add(rec)

	if err != nil {
		// The watchdog cancels the tracked context, not the request's; fold
		// its cause into the error so status mapping (and coalesced
		// followers, who never see this context) can recognize the kill.
		if errors.Is(context.Cause(ctx), grazelle.ErrWatchdogKilled) {
			err = fmt.Errorf("%w (%v)", grazelle.ErrWatchdogKilled, err)
		}
		return qcache.Result{RunID: runID}, err
	}
	// The response is assembled as a map so the summary keys come from the
	// registry entry instead of a hardwired struct; json.Marshal sorts map
	// keys, so cached and fresh responses stay byte-identical.
	resp := map[string]any{
		"run_id":          runID,
		"graph":           req.Graph,
		"app":             req.App,
		"iterations":      stats.Iterations,
		"pull_iterations": stats.PullIterations,
		"push_iterations": stats.PushIterations,
		"mode":            stats.Mode,
		"partitions":      stats.Partitions,
		"elapsed_ms":      stats.Total.Milliseconds(),
	}
	if incremental {
		resp["incremental"] = true
		resp["seed_version"] = seedVersion
	}
	for _, st := range res.Summary() {
		resp[st.Key] = st.Value
	}
	if req.Values {
		resp["values"] = res.Values()
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		return qcache.Result{RunID: runID}, err
	}
	// Match writeJSON's json.Encoder framing so cached and fresh responses
	// are byte-identical.
	payload = append(payload, '\n')
	if canSeed {
		// Every successful run of a seed-capable app is the next mutation's
		// warm-start candidate — including incremental runs, so seeds chain
		// across a stream of small batches.
		s.cache.OfferSeed(req.Graph, req.App, seedKey, h.Version(), res.Props)
	}
	return qcache.Result{
		Payload:      payload,
		RunID:        runID,
		Version:      h.Version(),
		Phases:       stats.Phases,
		TraceDropped: stats.TraceDropped,
	}, nil
}

// Sentinel errors for the /v1/runs endpoints.
var (
	errBadRunCount = errors.New("bad n: want a nonnegative integer")
	errRunNotFound = errors.New("run not found (aged out of the trace ring or never existed)")
)

// acquireStatus maps a Store.Acquire failure to an HTTP status: unknown
// name 404; store shutting down or snapshot data failing (quarantined
// corruption, exhausted rehydration retries) 503 so load balancers route
// away; anything else 500.
func acquireStatus(err error) int {
	switch {
	case errors.Is(err, grazelle.ErrGraphNotFound):
		return http.StatusNotFound
	case errors.Is(err, grazelle.ErrStoreClosed):
		return http.StatusServiceUnavailable
	default:
		var ce *grazelle.CorruptSnapshotError
		var re *grazelle.RehydrateError
		if errors.As(err, &ce) || errors.As(err, &re) {
			return http.StatusServiceUnavailable
		}
		return http.StatusInternalServerError
	}
}

// queryStatus maps any failure on the query path — admission, version
// lookup, acquire, or the run itself — to an HTTP status: overload 429,
// unknown graph 404, a watchdog kill or degraded store 503, a client
// deadline 504, a contained panic 500, anything else 400. Coalesced
// followers share the leader's error, so the mapping depends only on the
// error value, never on whose context ran the compute.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, grazelle.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, grazelle.ErrWatchdogKilled):
		return http.StatusServiceUnavailable
	case errors.Is(err, grazelle.ErrGraphNotFound), errors.Is(err, grazelle.ErrStoreClosed):
		return acquireStatus(err)
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
