package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	grazelle "repro"
	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/qcache"
)

// serve-read: one `grazelle serve` under nproc closed-loop clients. The mix
// is 55 : 20 : 15 bfs : ppr : parameterless pr/cc, with one request in ten
// asking for the per-vertex vector ("values":true). Rooted queries draw
// their root Zipf(s=1.1) over a seeded permutation of the vertex ids, so the
// hit ratio emerges from root skew rather than from a flag.

const (
	zipfS       = 1.1
	shareBFS    = 55.0
	sharePPR    = 20.0
	shareNoArg  = 15.0
	shareValues = 0.10
	// bfsChecked is how many distinct bfs roots finish() verifies against
	// the sequential reference, most requested first: the reference takes
	// tens of milliseconds per root, too slow to run for every root seen.
	bfsChecked = 12
)

// startServer launches one serving role and waits until /readyz says so.
func startServer(ctx context.Context, e *env, role string, withDataDir bool, args ...string) (*proc, error) {
	p, err := e.ps.start(ctx, e.bin, role, withDataDir, args...)
	if err != nil {
		return nil, err
	}
	err = waitReady(ctx, role+" /readyz", func() bool {
		rp, err := do(ctx, e.http, http.MethodGet, p.url+"/readyz", nil, nil, noSpan, 0)
		return err == nil && rp.status == http.StatusOK
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// stopServer stops *p, if any, and forgets it.
func stopServer(e *env, p **proc) error {
	if *p == nil {
		return nil
	}
	stopping := *p
	*p = nil
	return e.ps.stop(stopping)
}

// generateTimed builds the benchmark's own copy of a server workload's graph.
func generateTimed(spec graphSpec) (*graph.Graph, float64) {
	t0 := time.Now()
	g := gen.Generate(spec.Dataset, spec.Scale)
	return g, ms(time.Since(t0).Nanoseconds())
}

func datasetArgs(spec graphSpec) []string {
	return []string{"-d", spec.Dataset.Abbrev(), "-scale", fmt.Sprint(spec.Scale)}
}

// postQuery sends one /v1/query and decodes the summary of a 200 response.
func postQuery(ctx context.Context, e *env, base string, q query, tr *tracer, parent, op int) (reply, summary, error) {
	rp, err := do(ctx, e.http, http.MethodPost, base+"/v1/query", q.json(), tr, parent, op)
	if err != nil {
		return rp, summary{}, err
	}
	if rp.status != http.StatusOK {
		return rp, summary{}, fmt.Errorf("%s: status %d: %.200s", q.key(), rp.status, rp.body)
	}
	s, err := parseSummary(rp.body)
	return rp, s, err
}

// checkSummary applies the per-response correctness checks that need no
// per-root oracle: rank sums, and the component count when known.
func checkSummary(q query, s summary, components int) error {
	switch q.App {
	case "pr", "ppr":
		if s.RankSum == nil {
			return fmt.Errorf("%s: no rank_sum in response", q.App)
		}
		return checkRankSum(*s.RankSum)
	case "cc":
		if s.Components == nil {
			return fmt.Errorf("cc: no components in response")
		}
		if components >= 0 {
			return checkCount("components", *s.Components, components)
		}
	case "bfs":
		if s.Reachable == nil {
			return fmt.Errorf("bfs: no reachable in response")
		}
	}
	return nil
}

// requestGen draws one client's seeded request sequence.
type requestGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []uint32
}

func newRequestGen(seed int64, client int, perm []uint32) *requestGen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &requestGen{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(perm)-1)), perm: perm}
}

func (r *requestGen) next() query {
	var q query
	switch u := r.rng.Float64() * (shareBFS + sharePPR + shareNoArg); {
	case u < shareBFS:
		q = query{App: "bfs", Root: r.perm[r.zipf.Uint64()]}
	case u < shareBFS+sharePPR:
		q = query{App: "ppr", Root: r.perm[r.zipf.Uint64()], Iters: prIters}
	case r.rng.Intn(2) == 0:
		q = query{App: "pr", Iters: prIters}
	default:
		q = query{App: "cc"}
	}
	q.Values = r.rng.Float64() < shareValues
	return q
}

type serveRead struct {
	e          *env
	seed       int64
	g          *graph.Graph // the benchmark's own copy, for the oracle
	genMS      float64      // what generating it took: the same call the server makes
	components int
	perm       []uint32
	gens       []*requestGen
	srv        *proc

	mu      sync.Mutex
	fills   map[string]map[uint64]bool // cache key → fingerprints of the bodies that filled it
	served  []servedFromCache
	reached map[uint32]int // bfs root → reachable count the server reported
	asked   map[uint32]int // bfs root → times requested
}

type servedFromCache struct {
	key  string
	body uint64
}

func newServeRead(e *env, seed int64) (instance, error) {
	s := &serveRead{e: e, seed: seed}
	s.g, s.genMS = generateTimed(e.size.serve)
	s.components = componentsRef(s.g)
	s.perm = make([]uint32, s.g.NumVertices)
	for i := range s.perm {
		s.perm[i] = uint32(i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(s.perm), func(a, b int) { s.perm[a], s.perm[b] = s.perm[b], s.perm[a] })
	return s, nil
}

func (s *serveRead) setUp(ctx context.Context, _ *tracer) (err error) {
	s.srv, err = startServer(ctx, s.e, "serve", false, datasetArgs(s.e.size.serve)...)
	// A fresh server has an empty cache and each set-up replays the seeded
	// sequences from their start.
	s.fills, s.served = map[string]map[uint64]bool{}, nil
	s.reached, s.asked = map[uint32]int{}, map[uint32]int{}
	s.gens = nil
	for c := 0; c < s.clients(); c++ {
		s.gens = append(s.gens, newRequestGen(s.seed, c, s.perm))
	}
	return err
}

func (s *serveRead) tearDown() error { return stopServer(s.e, &s.srv) }

func (s *serveRead) clients() int    { return s.e.nproc }
func (s *serveRead) primary() string { return "miss" }
func (s *serveRead) graphs() map[string]graphSize {
	return sizesOf(s.e.size.serve, s.g)
}
func (s *serveRead) procs() []*proc { return []*proc{s.srv} }

func (s *serveRead) op(ctx context.Context, client, i int, tr *tracer) outcome {
	q := s.gens[client].next()
	root := tr.begin("request/"+q.App, noSpan, i)
	rp, sum, err := postQuery(ctx, s.e, s.srv.url, q, tr, root, i)
	tr.end(root)
	if err != nil {
		return failed("%v", err)
	}
	if err := checkSummary(q, sum, s.components); err != nil {
		return failed("%s: %v", q.key(), err)
	}
	body := fingerprint(rp.body)
	class := rp.cache
	s.mu.Lock()
	switch rp.cache {
	case "miss":
		if s.fills[q.key()] == nil {
			s.fills[q.key()] = map[uint64]bool{}
		}
		s.fills[q.key()][body] = true
	case "hit", "coalesced":
		s.served = append(s.served, servedFromCache{q.key(), body})
	default:
		s.mu.Unlock()
		return failed("%s: unexpected X-Cache %q", q.key(), rp.cache)
	}
	var inconsistent bool
	if q.App == "bfs" {
		s.asked[q.Root]++
		prev, seen := s.reached[q.Root]
		inconsistent = seen && prev != *sum.Reachable
		s.reached[q.Root] = *sum.Reachable
	}
	s.mu.Unlock()
	if inconsistent {
		return failed("bfs root %d: reachable count changed between responses", q.Root)
	}
	if q.Values {
		class = "values_" + class
	}
	out := outcome{samples: []sample{{class, rp.ms}}}
	if class == "miss" {
		out.samples = append(out.samples, sample{"miss_overhead", rp.ms - sum.ElapsedMS})
	}
	return out
}

// finish holds every cache-served body against the misses that filled its
// key — a hit must be byte-identical to one of them — and the most requested
// bfs roots against the sequential reference.
func (s *serveRead) finish(context.Context) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bad []string
	for _, sv := range s.served {
		if !s.fills[sv.key][sv.body] {
			bad = append(bad, fmt.Sprintf("%s: cache-served body differs from every miss that filled the key", sv.key))
			break
		}
	}
	roots := make([]uint32, 0, len(s.asked))
	for r := range s.asked {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(a, b int) bool {
		if s.asked[roots[a]] != s.asked[roots[b]] {
			return s.asked[roots[a]] > s.asked[roots[b]]
		}
		return roots[a] < roots[b]
	})
	for _, r := range roots[:min(bfsChecked, len(roots))] {
		if err := checkCount("reachable", s.reached[r], reachedRef(s.g, r)); err != nil {
			bad = append(bad, fmt.Sprintf("bfs root %d: %v", r, err))
		}
	}
	return bad
}

// serverStats is the part of GET /v1/stats the layer metrics read.
type serverStats struct {
	Cache qcache.Stats `json:"cache"`
	WAL   struct {
		Appends   uint64 `json:"appends"`
		Fsyncs    uint64 `json:"fsyncs"`
		TailBytes int64  `json:"tail_bytes"`
	} `json:"wal"`
}

// httpLayers reports what the traced replay saw from the client side of one
// server: the probe floor, the httptrace phases, CPU and memory.
func httpLayers(ctx context.Context, e *env, front *proc, tr *tracer, m *sink) error {
	base := front.url
	var probes []float64
	for i := 0; i < 200; i++ {
		rp, err := do(ctx, e.http, http.MethodGet, base+"/healthz", nil, nil, noSpan, 0)
		if err != nil || rp.status != http.StatusOK {
			return fmt.Errorf("GET /healthz: status %d: %v", rp.status, err)
		}
		probes = append(probes, rp.ms*1000)
	}
	m.set("serve.healthz_us_p50", median(probes))
	m.set("serve.http_write_us_p50", tr.medianNS("http.write")/1e3)
	m.set("serve.http_wait_ms_p50", tr.medianNS("http.wait")/1e6)
	m.set("serve.http_read_us_p50", tr.medianNS("http.read")/1e3)
	u := usageOfAll([]*proc{front})
	m.set("serve.cpu_s", u.cpuS)
	m.set("serve.peak_rss_mb", u.peakRSSMB)
	return nil
}

func (s *serveRead) layers(ctx context.Context, tr *tracer, classes map[string][]float64, m *sink) error {
	m.set("serve.hit_ms_p50", median(classes["hit"]))
	m.set("serve.hit_ms_p99", percentile(classes["hit"], 99))
	m.set("serve.miss_ms_p50", median(classes["miss"]))
	m.set("serve.miss_ms_p95", percentile(classes["miss"], 95))
	m.set("serve.values_hit_ms_p50", median(classes["values_hit"]))
	m.set("serve.values_miss_ms_p50", median(classes["values_miss"]))
	m.set("serve.overhead_ms.miss", median(classes["miss_overhead"]))
	if err := httpLayers(ctx, s.e, s.srv, tr, m); err != nil {
		return err
	}
	var st serverStats
	if err := getJSON(ctx, s.e.http, s.srv.url+"/v1/stats", &st); err != nil {
		return err
	}
	// The server was fresh at set-up, so these totals are the pass's deltas.
	m.set("qcache.hit_ratio", float64(st.Cache.Hits)/float64(max(st.Cache.Hits+st.Cache.Misses, 1)))
	m.set("qcache.coalesced", float64(st.Cache.Coalesced))
	m.set("qcache.evictions", float64(st.Cache.Evictions))
	return s.mirror(ctx, tr, m)
}

// mirror replays a seeded request sequence through the same calls
// cmd/grazelle's executeQuery makes — decode → qcache.Cache.Do → Store.Admit
// → Store.Acquire → Engine.Run → Summary/Values → json.Marshal — in this
// process, with one span per call, so each layer's cost on the serving path
// is measured at its own boundary.
func (s *serveRead) mirror(ctx context.Context, tr *tracer, m *sink) error {
	var (
		fg  *grazelle.Graph
		err error
	)
	tr.timed("core.BuildGraph", noSpan, 0, func() { fg, err = grazelle.NewGraph(s.g.NumVertices, s.g.Edges, s.g.Weighted) })
	if err != nil {
		return err
	}
	st, err := grazelle.OpenStore(grazelle.StoreConfig{Workers: s.e.nproc, Options: grazelle.Options{Trace: true}})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Add("default", fg); err != nil {
		return err
	}
	cache := qcache.New(qcache.Config{Budget: 256 << 20})
	reqs := newRequestGen(s.seed, 0, s.perm)
	valuesBytes := 0
	for i := 0; i < s.e.size.tracedOps["serve-read"]; i++ {
		body := reqs.next().json()
		root := tr.begin("mirror.request", noSpan, i)
		var (
			q   query
			ent apps.Entry
			p   apps.Params
		)
		tr.timed("serve.decode", root, i, func() {
			if err = json.Unmarshal(body, &q); err == nil {
				if ent, err = apps.Lookup(q.App); err == nil {
					p = ent.Normalize(apps.Params{Iters: q.Iters, Root: q.Root})
				}
			}
		})
		if err != nil {
			return err
		}
		version, err := st.Version("default")
		if err != nil {
			return err
		}
		key := qcache.Key{Graph: "default", Version: version, App: q.App, Params: fmt.Sprintf("%s&values=%t", ent.Canonical(p), q.Values)}
		lookup := tr.begin("qcache.Do", root, i)
		_, outcome, err := cache.Do(ctx, key, func(ctx context.Context) (qcache.Result, error) {
			var release func()
			var aerr error
			tr.timed("sched.Admit", lookup, i, func() { release, aerr = st.Admit(ctx) })
			if aerr != nil {
				return qcache.Result{}, aerr
			}
			defer release()
			var h *grazelle.StoreHandle
			tr.timed("store.Acquire", lookup, i, func() { h, aerr = st.Acquire("default") })
			if aerr != nil {
				return qcache.Result{}, aerr
			}
			defer h.Close()
			var res *grazelle.AppResult
			tr.timed("core.Run/"+q.App, lookup, i, func() { res, aerr = h.Engine().Run(ctx, q.App, p) })
			if aerr != nil {
				return qcache.Result{}, aerr
			}
			resp := map[string]any{"app": q.App, "iterations": res.Stats.Iterations, "elapsed_ms": res.Stats.Total.Milliseconds()}
			tr.timed("apps.Summary/"+q.App, lookup, i, func() {
				for _, stat := range res.Summary() {
					resp[stat.Key] = stat.Value
				}
			})
			var payload []byte
			encode := "json.Marshal"
			if q.Values {
				encode = "apps.Values+json.Marshal"
			}
			tr.timed(encode, lookup, i, func() {
				if q.Values {
					resp["values"] = res.Values()
				}
				payload, aerr = json.Marshal(resp)
			})
			if q.Values {
				valuesBytes = max(valuesBytes, len(payload))
			}
			return qcache.Result{Payload: payload, Version: h.Version()}, aerr
		})
		tr.endAs(lookup, "qcache.Do/"+outcome.String())
		tr.end(root)
		if err != nil {
			return err
		}
	}
	m.set("gen.generate_ms", s.genMS)
	m.set("core.build_graph_ms", tr.medianNS("core.BuildGraph")/1e6)
	m.set("sched.admit_ns", tr.medianNS("sched.Admit"))
	m.set("store.acquire_hot_ns", tr.medianNS("store.Acquire"))
	m.set("qcache.do_hit_ns", tr.medianNS("qcache.Do/hit"))
	m.set("qcache.do_miss_overhead_ns", tr.medianSelfNS("qcache.Do/miss"))
	for _, app := range []string{"pr", "cc", "bfs", "ppr"} {
		m.set("core.run_ms."+app, tr.medianNS("core.Run/"+app)/1e6)
	}
	for _, app := range []string{"pr", "cc", "bfs"} {
		m.set("apps.summary_us."+app, tr.medianNS("apps.Summary/"+app)/1e3)
	}
	m.set("apps.values_encode_ms", tr.medianNS("apps.Values+json.Marshal")/1e6)
	m.set("apps.values_bytes", float64(valuesBytes))
	return nil
}
