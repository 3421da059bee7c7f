package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	grazelle "repro"
)

// cluster-read: `grazelle router` plus two `grazelle worker -n 1`
// processes, one client. One operation is one turn of the cycle pr iters=8,
// cc, bfs (seeded root), every query no_cache so it is routed and computed.
// Every routed body must equal what a single process answers to the same
// request: worker 0 is a full replica with the ordinary public API, so it is
// asked directly, once per distinct request, during set-up.

const (
	clusterWorkers = 2
	clusterRoots   = 8
)

// clusterStatus is the part of GET /v1/cluster the benchmark reads.
type clusterStatus struct {
	Workers []struct {
		Healthy  bool   `json:"healthy"`
		Synced   bool   `json:"synced"`
		BytesIn  uint64 `json:"exchange_bytes_in"`
		BytesOut uint64 `json:"exchange_bytes_out"`
	} `json:"workers"`
	Runs           uint64 `json:"runs"`
	Failovers      uint64 `json:"failovers"`
	ExchangeRounds uint64 `json:"exchange_rounds"`
}

type clusterRead struct {
	e       *env
	seed    int64
	router  *proc
	workers []*proc
	cycle   []query           // pr, cc, then one bfs per seeded root
	want    map[string]string // request key → normalized single-process body
	size    graphSize
	status0 clusterStatus // counters when set-up finished
}

func newClusterRead(e *env, seed int64) (instance, error) {
	return &clusterRead{e: e, seed: seed}, nil
}

func (c *clusterRead) setUp(ctx context.Context, _ *tracer) error {
	var urls []string
	for i := 0; i < clusterWorkers; i++ {
		w, err := startServer(ctx, c.e, "worker", false, "-n", "1")
		if err != nil {
			return err
		}
		c.workers = append(c.workers, w)
		urls = append(urls, w.url)
	}
	args := append(datasetArgs(c.e.size.serve), "-workers", strings.Join(urls, ","))
	var err error
	if c.router, err = startServer(ctx, c.e, "router", false, args...); err != nil {
		return err
	}
	// Resync: the router's health loop pushes the catalog until every worker
	// holds the graph; only then does it route to them.
	err = waitReady(ctx, "cluster resync", func() bool {
		var st clusterStatus
		if getJSON(ctx, c.e.http, c.router.url+"/v1/cluster", &st) != nil || len(st.Workers) != clusterWorkers {
			return false
		}
		for _, w := range st.Workers {
			if !w.Healthy || !w.Synced {
				return false
			}
		}
		c.status0 = st
		return true
	})
	if err != nil || c.want != nil {
		return err
	}
	return c.oracle(ctx)
}

// oracle asks worker 0 directly for the single-process answer to each
// distinct request; answers are bit-deterministic, so once is enough. It also
// picks the bfs roots: seeded candidates are kept
// when their search reaches more than half the graph, so each bfs does
// comparable work whichever roots the seed draws (most vertices of an R-MAT
// graph are sinks whose search ends at once).
func (c *clusterRead) oracle(ctx context.Context) error {
	var listing struct {
		Graphs []struct {
			Name     string `json:"name"`
			Vertices int    `json:"vertices"`
			Edges    int    `json:"edges"`
		} `json:"graphs"`
	}
	if err := getJSON(ctx, c.e.http, c.router.url+"/v1/graphs", &listing); err != nil {
		return err
	}
	if len(listing.Graphs) != 1 {
		return fmt.Errorf("router lists %d graphs, want 1", len(listing.Graphs))
	}
	c.size = graphSize{listing.Graphs[0].Vertices, listing.Graphs[0].Edges}

	c.cycle, c.want = nil, map[string]string{}
	local := func(q query) (summary, error) {
		rp, sum, err := postQuery(ctx, c.e, c.workers[0].url, q, nil, noSpan, 0)
		if err == nil {
			err = checkSummary(q, sum, -1)
		}
		if err != nil {
			return sum, fmt.Errorf("single-process reference: %w", err)
		}
		c.want[q.key()] = normalizeBody(rp.body)
		return sum, nil
	}
	for _, q := range []query{{App: "pr", Iters: prIters, NoCache: true}, {App: "cc", NoCache: true}} {
		if _, err := local(q); err != nil {
			return err
		}
		c.cycle = append(c.cycle, q)
	}
	rng := rand.New(rand.NewSource(c.seed))
	for tries := 0; len(c.cycle) < 2+clusterRoots; tries++ {
		if tries > 64*clusterRoots {
			return fmt.Errorf("no %d roots reaching half of %d vertices", clusterRoots, c.size.Vertices)
		}
		q := query{App: "bfs", Root: uint32(rng.Intn(c.size.Vertices)), NoCache: true}
		if _, dup := c.want[q.key()]; dup {
			continue
		}
		sum, err := local(q)
		if err != nil {
			return err
		}
		if *sum.Reachable > c.size.Vertices/2 {
			c.cycle = append(c.cycle, q)
		}
	}
	return nil
}

func (c *clusterRead) tearDown() error {
	errs := []error{stopServer(c.e, &c.router)}
	for i := range c.workers {
		errs = append(errs, stopServer(c.e, &c.workers[i]))
	}
	c.workers = nil
	return errors.Join(errs...)
}

func (c *clusterRead) clients() int    { return 1 }
func (c *clusterRead) primary() string { return "cycle" }
func (c *clusterRead) graphs() map[string]graphSize {
	return map[string]graphSize{c.e.size.serve.String(): c.size}
}
func (c *clusterRead) finish(context.Context) []string { return nil }

func (c *clusterRead) procs() []*proc { return append([]*proc{c.router}, c.workers...) }

func (c *clusterRead) op(ctx context.Context, _, i int, tr *tracer) outcome {
	turn := []query{c.cycle[0], c.cycle[1], c.cycle[2+i%clusterRoots]}
	root := tr.begin("cycle", noSpan, i)
	defer tr.end(root)
	var out outcome
	total := 0.0
	for _, q := range turn {
		id := tr.begin("request/"+q.App, root, i)
		rp, _, err := postQuery(ctx, c.e, c.router.url, q, tr, id, i)
		tr.end(id)
		if err != nil {
			return failed("routed %v", err)
		}
		if rp.cache != "bypass" {
			return failed("routed %s: X-Cache %q, want bypass", q.key(), rp.cache)
		}
		if normalizeBody(rp.body) != c.want[q.key()] {
			return failed("routed %s: body differs from the single-process answer", q.key())
		}
		total += rp.ms
		out.samples = append(out.samples, sample{"routed", rp.ms}, sample{"routed." + q.App, rp.ms})
	}
	out.samples = append(out.samples, sample{"cycle", total})
	return out
}

func (c *clusterRead) layers(ctx context.Context, tr *tracer, classes map[string][]float64, m *sink) error {
	m.set("serve.routed_ms_p50", median(classes["routed"]))
	m.set("serve.routed_ms_p95", percentile(classes["routed"], 95))

	// The same requests answered by one process: worker 0, asked directly.
	for _, q := range c.cycle[:3] {
		var local []float64
		for i := 0; i < 10; i++ {
			rp, _, err := postQuery(ctx, c.e, c.workers[0].url, q, nil, noSpan, 0)
			if err != nil {
				return err
			}
			local = append(local, rp.ms)
		}
		m.set("cluster.routed_over_local."+q.App, median(classes["routed."+q.App])/median(local))
	}

	var st clusterStatus
	if err := getJSON(ctx, c.e.http, c.router.url+"/v1/cluster", &st); err != nil {
		return err
	}
	runs := float64(max(st.Runs-c.status0.Runs, 1))
	var bytes uint64
	for i, w := range st.Workers {
		bytes += w.BytesIn + w.BytesOut - c.status0.Workers[i].BytesIn - c.status0.Workers[i].BytesOut
	}
	m.set("cluster.exchange_rounds_per_run", float64(st.ExchangeRounds-c.status0.ExchangeRounds)/runs)
	m.set("cluster.exchange_bytes_per_run", float64(bytes)/runs)
	m.set("cluster.failovers", float64(st.Failovers-c.status0.Failovers))

	if err := httpLayers(ctx, c.e, c.router, tr, m); err != nil {
		return err
	}
	workers := usageOfAll(c.workers)
	m.set("serve.cpu_s.workers", workers.cpuS)
	m.set("serve.peak_rss_mb.workers", workers.peakRSSMB)
	return c.partitionLayers(ctx, tr, m)
}

// partitionLayers prices the partitioned coordinator the cluster tier is
// built on, without the network: the same run with Options.Partitions =
// the worker count against the monolithic run, in this process.
func (c *clusterRead) partitionLayers(ctx context.Context, tr *tracer, m *sink) error {
	g, genMS := generateTimed(c.e.size.serve)
	m.set("gen.generate_ms", genMS)
	fg, err := grazelle.NewGraph(g.NumVertices, g.Edges, g.Weighted)
	if err != nil {
		return err
	}
	mono := grazelle.NewEngine(fg, grazelle.Options{Workers: c.e.nproc})
	defer mono.Close()
	parts := grazelle.NewEngine(fg, grazelle.Options{Workers: c.e.nproc, Partitions: clusterWorkers})
	defer parts.Close()
	for _, q := range c.cycle[:3] {
		p := grazelle.Params{Iters: q.Iters, Root: q.Root}
		for i := 0; i < 7; i++ {
			if _, _, err := timedRun(ctx, mono, q.App, p, tr, "core.Run/"+q.App, i); err != nil {
				return err
			}
			if _, _, err := timedRun(ctx, parts, q.App, p, tr, "coord.Run/"+q.App, i); err != nil {
				return err
			}
		}
		m.set("core.run_ms."+q.App, tr.medianNS("core.Run/"+q.App)/1e6)
		if q.App != "bfs" {
			m.set("coord.partitioned_over_local."+q.App, tr.medianNS("coord.Run/"+q.App)/tr.medianNS("core.Run/"+q.App))
		}
	}
	return nil
}
