package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	grazelle "repro"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/vsparse"
)

// serve-mutate: writes beside reads, one client. One cycle is
//
//	POST /v1/graphs/default/edges   seeded insert-only batch (sizes cycle 1, 16, 256)
//	cc                              first query on the new version ("fresh")
//	pr iters=8                      full recompute on the now-resident version
//	pr iters=8 again                hit
//
// and every compactEvery-th cycle ends with POST …/compact, off the cycle's
// clock. The overlay stays far below -compact-after, so background
// compaction never runs beside the explicit one.

var batchSizes = []int{1, 16, 256}

const compactEvery = 16

// edgeBatch draws a seeded insert-only batch over n vertices.
func edgeBatch(rng *rand.Rand, n, size int) []graph.EdgeOp {
	ops := make([]graph.EdgeOp, size)
	for i := range ops {
		src := uint32(rng.Intn(n))
		dst := uint32(rng.Intn(n - 1))
		if dst >= src {
			dst++ // no self-loops
		}
		ops[i] = graph.EdgeOp{Src: src, Dst: dst}
	}
	return ops
}

// edgesBody is the body of POST /v1/graphs/{name}/edges.
func edgesBody(ops []graph.EdgeOp) []byte {
	type op struct {
		Src uint32 `json:"src"`
		Dst uint32 `json:"dst"`
	}
	body := struct {
		Ops []op `json:"ops"`
	}{Ops: make([]op, len(ops))}
	for i, o := range ops {
		body.Ops[i] = op{o.Src, o.Dst}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // a struct of integers always marshals
	}
	return b
}

type serveMutate struct {
	e     *env
	seed  int64
	g     *graph.Graph
	genMS float64
	rng   *rand.Rand
	srv   *proc

	mu      sync.Mutex
	batches [][]graph.EdgeOp // every acknowledged batch, in order
	claimed map[int]int      // batches applied → component count the server reported then
	fresh   int              // fresh queries answered
	seeded  int              // … of which incrementally
}

func newServeMutate(e *env, seed int64) (instance, error) {
	s := &serveMutate{e: e, seed: seed}
	s.g, s.genMS = generateTimed(e.size.serve)
	return s, nil
}

func (s *serveMutate) setUp(ctx context.Context, _ *tracer) (err error) {
	s.srv, err = startServer(ctx, s.e, "serve", true, datasetArgs(s.e.size.serve)...)
	s.rng = rand.New(rand.NewSource(s.seed))
	s.batches, s.claimed = nil, map[int]int{}
	s.fresh, s.seeded = 0, 0
	return err
}

func (s *serveMutate) tearDown() error { return stopServer(s.e, &s.srv) }

func (s *serveMutate) clients() int                 { return 1 }
func (s *serveMutate) primary() string              { return "cycle" }
func (s *serveMutate) graphs() map[string]graphSize { return sizesOf(s.e.size.serve, s.g) }
func (s *serveMutate) procs() []*proc               { return []*proc{s.srv} }

func (s *serveMutate) op(ctx context.Context, _, i int, tr *tracer) outcome {
	batch := edgeBatch(s.rng, s.g.NumVertices, batchSizes[i%len(batchSizes)])
	root := tr.begin("cycle", noSpan, i)
	defer tr.end(root)
	start := time.Now()

	id := tr.begin("request/edges", root, i)
	ack, err := do(ctx, s.e.http, http.MethodPost, s.srv.url+"/v1/graphs/default/edges", edgesBody(batch), tr, id, i)
	tr.end(id)
	if err != nil || ack.status != http.StatusOK {
		return failed("edges: status %d: %v %.200s", ack.status, err, ack.body)
	}
	s.mu.Lock()
	s.batches = append(s.batches, batch)
	applied := len(s.batches)
	s.mu.Unlock()

	ask := func(class string, q query, wantCache string) (reply, summary, error) {
		id := tr.begin("request/"+class, root, i)
		rp, sum, err := postQuery(ctx, s.e, s.srv.url, q, tr, id, i)
		tr.end(id)
		if err == nil {
			err = checkSummary(q, sum, -1)
		}
		if err == nil && rp.cache != wantCache {
			err = fmt.Errorf("X-Cache %q, want %q", rp.cache, wantCache)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", class, err)
		}
		return rp, sum, err
	}
	fresh, freshSum, err := ask("fresh", query{App: "cc"}, "miss")
	if err != nil {
		return failed("%v", err)
	}
	full, _, err := ask("recompute", query{App: "pr", Iters: prIters}, "miss")
	if err != nil {
		return failed("%v", err)
	}
	hit, _, err := ask("hit", query{App: "pr", Iters: prIters}, "hit")
	if err != nil {
		return failed("%v", err)
	}
	cycle := ms(time.Since(start).Nanoseconds())
	if fingerprint(hit.body) != fingerprint(full.body) {
		return failed("hit body differs from the miss that filled it")
	}

	s.mu.Lock()
	s.fresh++
	if freshSum.Incremental {
		s.seeded++
	}
	if applied == 1 || applied%compactEvery == 0 {
		s.claimed[applied] = *freshSum.Components
	}
	s.mu.Unlock()

	out := outcome{samples: []sample{
		{"write_ack", ack.ms},
		{"fresh", fresh.ms},
		{"fresh_minus_elapsed", fresh.ms - freshSum.ElapsedMS},
		{"recompute", full.ms},
		{"hit", hit.ms},
		{"cycle", cycle},
	}}
	if (i+1)%compactEvery == 0 {
		id := tr.begin("request/compact", root, i)
		rp, err := do(ctx, s.e.http, http.MethodPost, s.srv.url+"/v1/graphs/default/compact", nil, tr, id, i)
		tr.end(id)
		if err != nil || rp.status != http.StatusOK {
			return failed("compact: status %d: %v %.200s", rp.status, err, rp.body)
		}
		out.samples = append(out.samples, sample{"compact", rp.ms})
	}
	return out
}

// finish recomputes the component count on the benchmark's own copy of the
// mutated edge list at the cycles whose answer was kept (1, 16, 32, …). The
// last operation on an edge wins, so applying every batch so far in one call
// gives the same graph as applying them one by one, at a fraction of the cost.
func (s *serveMutate) finish(context.Context) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bad []string
	var sofar []graph.EdgeOp
	for n, batch := range s.batches {
		sofar = append(sofar, batch...)
		if got, kept := s.claimed[n+1]; kept {
			want := componentsRef(graph.ApplyEdgeOps(s.g, sofar))
			if err := checkCount("components", got, want); err != nil {
				bad = append(bad, fmt.Sprintf("cc after %d batches: %v", n+1, err))
			}
		}
	}
	return bad
}

func (s *serveMutate) layers(ctx context.Context, tr *tracer, classes map[string][]float64, m *sink) error {
	m.set("serve.write_ack_ms_p50", median(classes["write_ack"]))
	m.set("serve.fresh_query_ms_p50", median(classes["fresh"]))
	m.set("serve.fresh_minus_elapsed_ms", median(classes["fresh_minus_elapsed"]))
	m.set("serve.recompute_ms_p50", median(classes["recompute"]))
	m.set("serve.hit_ms_p50", median(classes["hit"]))
	m.set("serve.cycle_ms_p50", median(classes["cycle"]))
	m.set("serve.compact_ms_p50", median(classes["compact"]))
	s.mu.Lock()
	m.set("serve.incremental_share", float64(s.seeded)/float64(max(s.fresh, 1)))
	s.mu.Unlock()
	if err := httpLayers(ctx, s.e, s.srv, tr, m); err != nil {
		return err
	}
	var st serverStats
	if err := getJSON(ctx, s.e.http, s.srv.url+"/v1/stats", &st); err != nil {
		return err
	}
	m.set("qcache.hit_ratio", float64(st.Cache.Hits)/float64(max(st.Cache.Hits+st.Cache.Misses, 1)))
	m.set("qcache.seeds_used", float64(st.Cache.SeedsUsed))
	m.set("gen.generate_ms", s.genMS)
	if err := s.rebuildLayers(tr, m); err != nil {
		return err
	}
	return s.storeLayers(ctx, tr, m)
}

// scratchDir makes a fresh directory under bench/out for in-process store
// and snapshot measurements; the caller removes it.
func scratchDir(kind string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "data-"+kind+"-")
}

// rebuildLayers times, one call each, the steps a new version pays before
// its first query can run — the merge and every derived representation —
// and the snapshot I/O compaction and set-up pay.
func (s *serveMutate) rebuildLayers(tr *tracer, m *sink) error {
	rng := rand.New(rand.NewSource(s.seed + 1))
	batch := edgeBatch(rng, s.g.NumVertices, 256)
	var merged *graph.Graph
	tr.timed("graph.ApplyEdgeOps/b256", noSpan, 0, func() { merged = graph.ApplyEdgeOps(s.g, batch) })
	var csc *csr.Matrix
	tr.timed("csr.FromGraph", noSpan, 0, func() {
		csr.FromGraph(merged, false)
		csc = csr.FromGraph(merged, true)
	})
	tr.timed("vsparse.FromCSR", noSpan, 0, func() { vsparse.FromCSR(csc) })
	tr.timed("core.BuildGraph", noSpan, 0, func() { core.BuildGraph(merged) })

	dir, err := scratchDir("snapshot")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "g.grzg")
	tr.timed("graph.WriteFile", noSpan, 0, func() { err = merged.WriteFile(path) })
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	tr.timed("graph.ReadFile", noSpan, 0, func() { _, err = graph.ReadFile(path) })
	if err != nil {
		return err
	}
	m.set("graph.apply_ops_ms.b256", tr.medianNS("graph.ApplyEdgeOps/b256")/1e6)
	m.set("csr.from_graph_ms", tr.medianNS("csr.FromGraph")/1e6)
	m.set("vsparse.from_csr_ms", tr.medianNS("vsparse.FromCSR")/1e6)
	m.set("core.build_graph_ms", tr.medianNS("core.BuildGraph")/1e6)
	m.set("graph.write_file_ms", tr.medianNS("graph.WriteFile")/1e6)
	m.set("graph.read_file_ms", tr.medianNS("graph.ReadFile")/1e6)
	m.set("graph.snapshot_bytes", float64(fi.Size()))
	return nil
}

// recoverBatches is the WAL tail length the recovery measurement reopens.
const recoverBatches = 64

// storeLayers drives an in-process Store with a data directory through the
// same calls the server makes on a write and on the first read after it,
// one span per call.
func (s *serveMutate) storeLayers(ctx context.Context, tr *tracer, m *sink) error {
	dir, err := scratchDir("store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := grazelle.StoreConfig{DataDir: dir, Workers: s.e.nproc, Options: grazelle.Options{Trace: true}}
	st, err := grazelle.OpenStore(cfg)
	if err != nil {
		return err
	}
	defer func() { st.Close() }() // st is reopened below
	fg, err := grazelle.NewGraph(s.g.NumVertices, s.g.Edges, s.g.Weighted)
	if err != nil {
		return err
	}
	tr.timed("store.Add", noSpan, 0, func() { err = st.Add("g", fg) })
	if err != nil {
		return err
	}

	acquire := func(name string) (*grazelle.StoreHandle, error) {
		var h *grazelle.StoreHandle
		var err error
		tr.timed(name, noSpan, 0, func() { h, err = st.Acquire("g") })
		return h, err
	}
	// ccOn runs cc on the current version: the predecessor result a later
	// warm start is seeded from.
	ccOn := func() (*grazelle.AppResult, uint64, error) {
		h, err := acquire("store.Acquire/hot")
		if err != nil {
			return nil, 0, err
		}
		defer h.Close()
		res, err := h.Engine().Run(ctx, "cc", grazelle.Params{})
		return res, h.Version(), err
	}
	// seededCC warm-starts cc on h's version from pred across the log's delta.
	seededCC := func(h *grazelle.StoreHandle, pred *grazelle.AppResult, from uint64) error {
		var delta grazelle.Delta
		var ok, seeded bool
		var err error
		tr.timed("store.DeltaBetween", noSpan, 0, func() { delta, ok = st.DeltaBetween("g", from, h.Version()) })
		if !ok {
			return fmt.Errorf("DeltaBetween(%d, %d) not recoverable", from, h.Version())
		}
		tr.timed("core.RunIncremental/cc.b16", noSpan, 0, func() {
			_, seeded, err = h.Engine().RunIncremental(ctx, "cc", grazelle.Params{}, grazelle.SeedSpec{
				PredProps: pred.Props, Ops: delta.Ops, FromEdges: delta.FromEdges, FromCountsKnown: delta.FromCountsKnown,
			})
		})
		if err == nil && !seeded {
			err = fmt.Errorf("cc did not warm-start across a %d-op delta", len(delta.Ops))
		}
		return err
	}
	rng := rand.New(rand.NewSource(s.seed + 2))
	// write applies one batch and pays the first Acquire after it; a 16-op
	// batch is also the delta the seeded cc run crosses.
	write := func(size int) error {
		var pred *grazelle.AppResult
		var from uint64
		var err error
		if size == 16 {
			if pred, from, err = ccOn(); err != nil {
				return err
			}
		}
		batch := edgeBatch(rng, s.g.NumVertices, size)
		tr.timed(fmt.Sprintf("store.ApplyEdges/b%d", size), noSpan, 0, func() { _, _, err = st.ApplyEdges("g", batch) })
		if err != nil {
			return err
		}
		h, err := acquire("store.Acquire/materialize")
		if err != nil {
			return err
		}
		defer h.Close()
		if size == 16 {
			return seededCC(h, pred, from)
		}
		return nil
	}
	ops := 0
	before := st.Stats().WAL
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for _, size := range batchSizes {
			if err := write(size); err != nil {
				return err
			}
			ops += size
		}
	}
	after := st.Stats().WAL
	batches := float64(rounds * len(batchSizes))
	m.set("store.fsyncs_per_batch", float64(after.Fsyncs-before.Fsyncs)/batches)
	m.set("store.wal_bytes_per_op", float64(after.TailBytes-before.TailBytes)/float64(ops))
	tr.timed("store.Compact", noSpan, 0, func() { err = st.Compact("g") })
	if err != nil {
		return err
	}

	// Recovery: leave recoverBatches acknowledged batches in the log's tail,
	// close, and time reopening plus the first Acquire (replay and rebuild).
	for b := 0; b < recoverBatches; b++ {
		if _, _, err := st.ApplyEdges("g", edgeBatch(rng, s.g.NumVertices, 16)); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	tr.timed("store.Open+Acquire/b64", noSpan, 0, func() {
		var reopened *grazelle.Store
		if reopened, err = grazelle.OpenStore(cfg); err == nil {
			st = reopened
			var h *grazelle.StoreHandle
			if h, err = st.Acquire("g"); err == nil {
				h.Close()
			}
		}
	})
	if err != nil {
		return err
	}

	m.set("store.add_ms", tr.medianNS("store.Add")/1e6)
	m.set("store.acquire_hot_ns", tr.medianNS("store.Acquire/hot"))
	m.set("store.acquire_materialize_ms", tr.medianNS("store.Acquire/materialize")/1e6)
	for _, size := range batchSizes {
		m.set(fmt.Sprintf("store.apply_edges_ms.b%d", size), tr.medianNS(fmt.Sprintf("store.ApplyEdges/b%d", size))/1e6)
	}
	m.set("store.delta_between_us", tr.medianNS("store.DeltaBetween")/1e3)
	m.set("core.seeded_run_ms.cc.b16", tr.medianNS("core.RunIncremental/cc.b16")/1e6)
	m.set("store.compact_ms", tr.medianNS("store.Compact")/1e6)
	m.set("store.recover_ms.b64", tr.medianNS("store.Open+Acquire/b64")/1e6)
	return nil
}
