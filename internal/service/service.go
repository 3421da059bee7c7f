// Package service is the one request path of the serving tier: Execute is the
// only code that runs a query. The HTTP handlers of `grazelle serve`, the
// router and the worker are codecs over it — decode, Execute, encode:
//
//	codec ──▶ Execute ──▶ normalize + cache key ──▶ qcache.Do (or bypass)
//	                                                    │ miss
//	          the spine: Admit ▶ serve/handler failpoint ▶ Acquire ▶ shape
//	          check ▶ run ID + clock ▶ RUNNER ▶ encode ▶ record
//
// The runner is the only step that differs by role: the local engine
// (incremental seed lookup, RunIncremental or Run, seed offer), or — on a
// router — Config.Remote, which places the run on a worker and hands back
// that worker's finished response body. Everything around it — admission,
// the deadline, the run record with its stage clock, the response map — is
// written here once.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	grazelle "repro"
	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/vec"
)

// MaxBodyBytes bounds every JSON request body of the serving tier; graph-load
// and query requests are a few hundred bytes.
const MaxBodyBytes = 1 << 20

// Query is one query request: the decoded body of /v1/query and of each
// /v1/batch entry. Iters, Root, and K are the universal parameter fields; each
// app reads the subset its registered schema declares and the rest are zeroed
// out of the cache key.
type Query struct {
	Graph     string `json:"graph"`
	App       string `json:"app"`
	Iters     int    `json:"iters"`
	Root      uint32 `json:"root"`
	K         int    `json:"k"`
	TimeoutMS int64  `json:"timeout_ms"`
	Values    bool   `json:"values"`
	// NoCache opts this request out of the result cache, coalescing and the
	// incremental seed table.
	NoCache bool `json:"no_cache"`

	// ent and params are the app's registry entry and the canonical parameter
	// string, resolved once by normalize.
	ent    apps.Entry
	params string
}

// normalize validates the app against the registry and rewrites the
// parameter fields to their canonical form: fields the app's schema ignores
// are zeroed, used fields left unset get the registered defaults.
func (q *Query) normalize() error {
	if q.Graph == "" {
		q.Graph = "default"
	}
	ent, err := apps.Lookup(q.App)
	if err != nil {
		return err
	}
	p := ent.Normalize(apps.Params{Iters: q.Iters, Root: q.Root, K: q.K})
	q.Iters, q.Root, q.K = p.Iters, p.Root, p.K
	q.ent, q.params = ent, ent.Canonical(p)
	return nil
}

// cacheParams is the canonical parameter string plus the values flag — a
// response-shape parameter, not an app parameter, so it is appended here
// rather than registered.
func (q *Query) cacheParams() string {
	return q.params + "&values=" + strconv.FormatBool(q.Values)
}

// Outcome says how a request was satisfied; it is the X-Cache header value.
type Outcome string

const (
	Hit       Outcome = "hit"
	Miss      Outcome = "miss"
	Coalesced Outcome = "coalesced"
	Bypass    Outcome = "bypass"
)

// OutOfSyncError refuses a routed run whose replica does not have the shape
// the router pinned: answering would serve a different version's result.
type OutOfSyncError struct {
	Vertices, Edges         int
	WantVertices, WantEdges int
}

func (e *OutOfSyncError) Error() string {
	return fmt.Sprintf("cluster: replica has %d vertices / %d edges, router expects %d / %d",
		e.Vertices, e.Edges, e.WantVertices, e.WantEdges)
}

// RemoteFunc runs q somewhere else — the router's placement on a worker — and
// returns the finished response body, filling the parts of rec only the
// answering process knows (Trace, Worker, Iters, Mode, Kernel). h pins the
// version the result will be cached under and rec.ID is the run's ID.
type RemoteFunc func(ctx context.Context, h *grazelle.StoreHandle, q Query, rec *obs.RunRecord) ([]byte, error)

// Config configures a Service.
type Config struct {
	Store *grazelle.Store
	// Cache is the query result cache; nil disables caching, coalescing and
	// incremental recompute (-cache-bypass).
	Cache *qcache.Cache
	// MaxTimeout caps every request's deadline; it must be positive.
	MaxTimeout time.Duration
	// Workers is the pool size noted in run records.
	Workers int
	// IncrementalThreshold caps the mutation-delta size (edge ops) incremental
	// recompute will seed across; 0 disables the path.
	IncrementalThreshold int
	// RunHistory sizes the run-record ring behind /v1/runs.
	RunHistory int
	// Remote, when set, replaces the local engine as the runner (router role).
	Remote RemoteFunc
}

// Service executes queries against a store. It owns the run-record ring and
// the run-level metric families, registered in the store's registry so
// /metrics renders one catalog.
type Service struct {
	cfg  Config
	ring *obs.TraceRing

	// Run IDs are "run-<token>-<n>": the token is drawn once per process, so a
	// routed run filed on a worker under the router's ID can never shadow one
	// of the worker's own.
	runPrefix string
	runSeq    atomic.Uint64

	// runSeconds observes each run's wall time (the run stage); phaseSeconds
	// splits it by engine phase.
	runSeconds   *obs.Histogram
	phaseSeconds map[string]*obs.Histogram
	// incrementalSeeded counts runs warm-started from a predecessor result;
	// incrementalFallback counts attempts (capability + candidate + delta
	// under threshold) that still ran cold.
	incrementalSeeded   *obs.Counter
	incrementalFallback *obs.Counter
}

// New creates a Service and ties the cache's lifetime to the store's: its
// families live in the store's registry and its entries die with their store
// version. Retirement is reason-aware: mutate and compact are warm (payloads
// die, seed candidates survive to warm-start recomputes on the successor);
// replace and delete are hard (the lineage is over, seeds die too).
func New(cfg Config) *Service {
	reg := cfg.Store.Metrics()
	var token [3]byte
	rand.Read(token[:]) // never fails (crypto/rand, go 1.24)
	s := &Service{
		cfg:          cfg,
		ring:         obs.NewTraceRing(cfg.RunHistory),
		runPrefix:    "run-" + hex.EncodeToString(token[:]) + "-",
		runSeconds:   reg.Histogram("grazelle_run_seconds", "Engine run wall time per query.", nil, obs.DefTimeBuckets),
		phaseSeconds: make(map[string]*obs.Histogram, int(obs.NumPhases)),
		incrementalSeeded: reg.Counter("grazelle_incremental_seeded_total",
			"Query runs warm-started from a cached predecessor result.", nil),
		incrementalFallback: reg.Counter("grazelle_incremental_fallback_total",
			"Incremental attempts that fell back to a full recompute.", nil),
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		name := p.String()
		s.phaseSeconds[name] = reg.Histogram("grazelle_run_phase_seconds",
			"Engine run wall time split by phase.", obs.Labels{"phase": name}, obs.DefTimeBuckets)
	}
	if s.cfg.Cache != nil {
		s.cfg.Cache.RegisterMetrics(reg)
		s.cfg.Store.OnRetireReason(func(name string, version uint64, reason grazelle.RetireReason) {
			warm := reason == grazelle.RetireMutate || reason == grazelle.RetireCompact
			s.cfg.Cache.RetireVersion(name, version, warm)
		})
	}
	return s
}

// Store returns the store the service executes against.
func (s *Service) Store() *grazelle.Store { return s.cfg.Store }

// Runs returns the run-record ring behind /v1/runs.
func (s *Service) Runs() *obs.TraceRing { return s.ring }

// deadline derives a request's context: the client's timeout_ms, capped by
// MaxTimeout.
func (s *Service) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.MaxTimeout
	if d := time.Duration(timeoutMS) * time.Millisecond; d > 0 && d < timeout {
		timeout = d
	}
	return context.WithTimeout(ctx, timeout)
}

// cacheKey builds the request's cache key from the graph's current store
// version. Timeout is deliberately absent: it shapes how long the caller
// waits, not what the result is.
func (s *Service) cacheKey(q *Query) (qcache.Key, error) {
	version, err := s.cfg.Store.Version(q.Graph)
	if err != nil {
		return qcache.Key{}, err
	}
	return qcache.Key{Graph: q.Graph, Version: version, App: q.App, Params: q.cacheParams()}, nil
}

// Execute answers one query: from the result cache, by attaching to an
// identical in-flight run, or by running the spine. Concurrent identical
// queries coalesce onto one run and one admission slot; a promoted leader
// re-admits under its own context. The outcome is empty only when the request
// failed before the cache was consulted (unknown app, unknown graph).
func (s *Service) Execute(ctx context.Context, q Query) (qcache.Result, Outcome, error) {
	ctx, cancel := s.deadline(ctx, q.TimeoutMS)
	defer cancel()
	if err := q.normalize(); err != nil {
		return qcache.Result{}, "", err
	}
	if s.cfg.Cache == nil || q.NoCache {
		res, _, err := s.compute(ctx, &q, nil, nil)
		return res, Bypass, err
	}
	key, err := s.cacheKey(&q)
	if err != nil {
		return qcache.Result{}, "", err
	}
	res, outcome, err := s.cfg.Cache.Do(ctx, key, func(cctx context.Context) (qcache.Result, error) {
		res, _, err := s.compute(cctx, &q, nil, nil)
		return res, err
	})
	return res, Outcome(outcome.String()), err
}

// routed is what a router pinned for a run it placed on this process.
type routed struct {
	runID           string
	vertices, edges int
}

// ExecuteRouted is Execute for a run a router placed on this worker: it is
// filed under the router-issued runID (one ID finds both halves), refused with
// an *OutOfSyncError unless the replica has the shape the router pinned, and
// bypasses this process's result cache and seed table — the router's own
// cache fronts it. It returns the finished response body and the run's record;
// the record's ID is empty when the run never started.
func (s *Service) ExecuteRouted(ctx context.Context, q Query, runID string, vertices, edges int) ([]byte, obs.RunRecord, error) {
	ctx, cancel := s.deadline(ctx, q.TimeoutMS)
	defer cancel()
	if err := q.normalize(); err != nil {
		return nil, obs.RunRecord{}, err
	}
	q.NoCache = true
	res, rec, err := s.compute(ctx, &q, nil, &routed{runID, vertices, edges})
	return res.Payload, rec, err
}

// compute is the spine: the full uncached path of one query. pinned, when
// non-nil, is a handle the caller already holds (a batch pins one per graph).
// The returned Result carries the handle's version so the cache indexes it
// under the version it was actually computed on; the record is zero unless
// the run reached the runner.
func (s *Service) compute(ctx context.Context, q *Query, pinned *grazelle.StoreHandle, rt *routed) (qcache.Result, obs.RunRecord, error) {
	t0 := time.Now()
	// Admission first: a rejected query must not touch graph state. 429
	// tells well-behaved clients to back off and retry.
	release, err := s.cfg.Store.Admit(ctx)
	if err != nil {
		return qcache.Result{}, obs.RunRecord{}, err
	}
	defer release()

	// Fault-injection site for chaos tests: a panic here exercises the
	// codec's recovery wrapper with an admission slot held.
	if err := fault.Inject("serve/handler"); err != nil {
		panic(err)
	}
	admitted := time.Now()

	h := pinned
	if h == nil {
		if h, err = s.cfg.Store.Acquire(q.Graph); err != nil {
			return qcache.Result{}, obs.RunRecord{}, err
		}
		defer h.Close()
	}
	vertices, edges := h.Graph().NumVertices(), h.Graph().NumEdges()
	if rt != nil && (vertices != rt.vertices || edges != rt.edges) {
		return qcache.Result{}, obs.RunRecord{}, &OutOfSyncError{vertices, edges, rt.vertices, rt.edges}
	}

	rec := obs.RunRecord{Graph: q.Graph, App: q.App, Start: t0, Vertices: int64(vertices), Edges: int64(edges)}
	if rt != nil {
		rec.ID = rt.runID
	} else {
		rec.ID = s.runPrefix + strconv.FormatUint(s.runSeq.Add(1), 10)
	}
	acquired := time.Now()

	var (
		res     *grazelle.AppResult
		payload []byte
	)
	if s.cfg.Remote != nil {
		payload, err = s.cfg.Remote(ctx, h, *q, &rec)
	} else {
		res, err = s.runLocal(ctx, h, q, &rec)
	}
	ran := time.Now()
	if err == nil && res != nil {
		payload, err = encode(q, &rec, res)
	}
	encoded := time.Now()

	// Record the run — success or failure — before responding: the run stage
	// feeds the run histograms and the record lands in the ring where
	// GET /v1/runs/{id} can replay it, stage by stage.
	rec.Wall = encoded.Sub(t0)
	rec.Stages = obs.Stages{Admission: admitted.Sub(t0), Acquire: acquired.Sub(admitted), Encode: encoded.Sub(ran)}
	if s.cfg.Remote != nil {
		rec.Stages.Post = ran.Sub(acquired)
	} else {
		rec.Stages.Run = ran.Sub(acquired)
	}
	if err != nil {
		rec.Error = err.Error()
	}
	s.runSeconds.Observe(ran.Sub(acquired).Seconds())
	for _, ph := range rec.Trace.Phases {
		if hist := s.phaseSeconds[ph.Phase]; hist != nil {
			hist.Observe(ph.Wall.Seconds())
		}
	}
	s.ring.Add(rec)

	if err != nil {
		return qcache.Result{RunID: rec.ID}, rec, err
	}
	if res != nil && s.canSeed(q) {
		// Every successful run of a seed-capable app is the next mutation's
		// warm-start candidate — including incremental runs, so seeds chain
		// across a stream of small batches.
		s.cfg.Cache.OfferSeed(q.Graph, q.App, q.params, h.Version(), res.Props)
	}
	return qcache.Result{Payload: payload, RunID: rec.ID, Version: h.Version()}, rec, nil
}

// canSeed reports whether q takes part in incremental recompute: the app can
// warm-start and the request did not opt out of cached state.
func (s *Service) canSeed(q *Query) bool {
	return q.ent.IncrementalSeed != nil && s.cfg.Cache != nil && !q.NoCache
}

// runLocal is the local runner: one engine run over h, filling rec with the
// engine's view of it.
func (s *Service) runLocal(ctx context.Context, h *grazelle.StoreHandle, q *Query, rec *obs.RunRecord) (*grazelle.AppResult, error) {
	eng := h.Engine()
	p := grazelle.Params{Iters: q.Iters, Root: q.Root, K: q.K}
	var (
		res *grazelle.AppResult
		err error
		ran bool
	)
	// Incremental recompute: when this app can warm-start, a predecessor
	// result is retained for these exact params, and the connecting mutation
	// delta is recoverable and under -incremental-threshold, seed the run
	// from the predecessor instead of cold-starting. Any failure inside
	// degrades to the full recompute below, with the fallback counted.
	if s.canSeed(q) && s.cfg.IncrementalThreshold > 0 {
		if sv, props, ok := s.cfg.Cache.SeedFor(q.Graph, q.App, q.params); ok && sv < h.Version() {
			if d, dok := s.cfg.Store.DeltaBetween(q.Graph, sv, h.Version()); dok && len(d.Ops) <= s.cfg.IncrementalThreshold {
				var seeded bool
				res, seeded, err = eng.RunIncremental(ctx, q.App, p, grazelle.SeedSpec{
					PredProps:       props,
					Ops:             d.Ops,
					FromEdges:       d.FromEdges,
					FromCountsKnown: d.FromCountsKnown,
				})
				ran = true
				if seeded {
					rec.Incremental, rec.SeedVersion = true, sv
					s.cfg.Cache.CountSeedUse()
					s.incrementalSeeded.Inc()
				} else {
					s.incrementalFallback.Inc()
				}
			}
		}
	}
	if !ran {
		res, err = eng.Run(ctx, q.App, p)
	}
	rec.Workers, rec.Kernel = s.cfg.Workers, vec.Kernel()
	if res != nil {
		stats := res.Stats
		rec.Trace = obs.RunTrace{
			Phases:     stats.Phases,
			Directions: stats.Directions,
		}
		rec.Iters, rec.Mode = stats.Iterations, stats.Mode
	}
	return res, err
}

// encode serializes a run's response body — the one place the response map
// is built. The summary keys come from the registry entry instead of a
// hardwired struct; json.Marshal sorts map keys, so cached, fresh and routed
// responses are byte-identical.
func encode(q *Query, rec *obs.RunRecord, res *grazelle.AppResult) ([]byte, error) {
	stats := res.Stats
	resp := map[string]any{
		"run_id":          rec.ID,
		"graph":           q.Graph,
		"app":             q.App,
		"iterations":      stats.Iterations,
		"pull_iterations": stats.PullIterations,
		"push_iterations": stats.PushIterations,
		"mode":            stats.Mode,
		"elapsed_ms":      stats.Total.Milliseconds(),
	}
	if rec.Incremental {
		resp["incremental"] = true
		resp["seed_version"] = rec.SeedVersion
	}
	for _, st := range res.Summary() {
		resp[st.Key] = st.Value
	}
	if q.Values {
		resp["values"] = res.Values()
	}
	payload, err := json.Marshal(resp)
	// The trailing newline is json.Encoder's framing, which every other
	// response of the tier carries.
	return append(payload, '\n'), err
}
