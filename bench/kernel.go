package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	grazelle "repro"
	"repro/internal/apps"
	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/vsparse"
)

// The two in-process workloads call the public facade the way a library
// user does: one caller, closed loop, Workers = nproc, tracing off.

// prIters is the PageRank iteration count of every pr and ppr operation.
const prIters = 8

// rankSumTolerance bounds |rank sum − 1| for pr and ppr answers.
const rankSumTolerance = 1e-9

// engineOn generates one analog and builds a facade engine on it, with a
// span around each layer call when traced.
func engineOn(spec graphSpec, workers int, tr *tracer, suffix string) (*graph.Graph, *grazelle.Engine, error) {
	var g *graph.Graph
	tr.timed("gen.Generate"+suffix, noSpan, 0, func() { g = gen.Generate(spec.Dataset, spec.Scale) })
	var (
		fg  *grazelle.Graph
		err error
	)
	// NewGraph is validation plus core.BuildGraph (CSR, CSC, VSS, VSD).
	tr.timed("core.BuildGraph"+suffix, noSpan, 0, func() { fg, err = grazelle.NewGraph(g.NumVertices, g.Edges, g.Weighted) })
	if err != nil {
		return nil, nil, err
	}
	return g, grazelle.NewEngine(fg, grazelle.Options{Workers: workers}), nil
}

// timedRun executes one application run and returns its wall time.
func timedRun(ctx context.Context, e *grazelle.Engine, app string, p grazelle.Params, tr *tracer, name string, op int) (*grazelle.AppResult, float64, error) {
	id := tr.begin(name, noSpan, op)
	t0 := time.Now()
	res, err := e.Run(ctx, app, p)
	d := time.Since(t0)
	tr.end(id)
	return res, ms(d.Nanoseconds()), err
}

func statValue(res *grazelle.AppResult, key string) (float64, bool) {
	for _, st := range res.Summary() {
		if st.Key != key {
			continue
		}
		switch v := st.Value.(type) {
		case float64:
			return v, true
		case int:
			return float64(v), true
		}
	}
	return 0, false
}

// checkRankSum is the pr/ppr correctness check.
func checkRankSum(sum float64) error {
	if math.IsNaN(sum) || math.Abs(sum-1) > rankSumTolerance {
		return fmt.Errorf("rank sum %.12f is not within %g of 1", sum, rankSumTolerance)
	}
	return nil
}

// checkCount is the cc/bfs correctness check against a sequential reference.
func checkCount(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s = %d, sequential reference says %d", what, got, want)
	}
	return nil
}

// reachedRef counts what the sequential reference BFS reaches from root.
func reachedRef(g *graph.Graph, root uint32) int {
	n := 0
	for _, p := range apps.ReferenceBFS(g, root) {
		if p != apps.NoParent {
			n++
		}
	}
	return n
}

// componentsRef counts the sequential reference's component labels.
func componentsRef(g *graph.Graph) int {
	seen := map[uint32]struct{}{}
	for _, c := range apps.ReferenceComponents(g) {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// ---- kernel-dense ----------------------------------------------------------

type kernelDense struct {
	e   *env
	g   *graph.Graph
	eng *grazelle.Engine
}

func newKernelDense(e *env, _ int64) (instance, error) { return &kernelDense{e: e}, nil }

func (k *kernelDense) setUp(_ context.Context, tr *tracer) (err error) {
	k.g, k.eng, err = engineOn(k.e.size.dense, k.e.nproc, tr, "")
	return err
}

func (k *kernelDense) tearDown() error {
	if k.eng != nil {
		k.eng.Close()
		k.eng, k.g = nil, nil
	}
	return nil
}

func (k *kernelDense) clients() int                    { return 1 }
func (k *kernelDense) primary() string                 { return "solve" }
func (k *kernelDense) finish(context.Context) []string { return nil }
func (k *kernelDense) procs() []*proc                  { return nil }
func (k *kernelDense) graphs() map[string]graphSize    { return sizesOf(k.e.size.dense, k.g) }
func sizesOf(spec graphSpec, g *graph.Graph) map[string]graphSize {
	if g == nil {
		return nil
	}
	return map[string]graphSize{spec.String(): {g.NumVertices, g.NumEdges()}}
}

func (k *kernelDense) op(ctx context.Context, _, i int, tr *tracer) outcome {
	res, took, err := timedRun(ctx, k.eng, "pr", grazelle.Params{Iters: prIters}, tr, "core.Run/pr", i)
	if err != nil {
		return failed("pr: %v", err)
	}
	sum, _ := statValue(res, "rank_sum")
	if err := checkRankSum(sum); err != nil {
		return failed("pr: %v", err)
	}
	return outcome{samples: []sample{{"solve", took}}}
}

func (k *kernelDense) layers(ctx context.Context, tr *tracer, classes map[string][]float64, m *sink) error {
	buildLayers(k.g, tr, m, "")
	runMS := median(classes["solve"])
	m.set("core.run_ms.pr", runMS)
	m.set("core.ns_per_edge.pr", runMS*1e6/float64(k.g.NumEdges()*prIters))
	traced := grazelle.NewEngine(k.eng.Graph(), grazelle.Options{Workers: k.e.nproc, Trace: true})
	defer traced.Close()
	if err := kernelStats(ctx, traced, "pr", grazelle.Params{Iters: prIters}, "pr", true, m); err != nil {
		return err
	}

	// Parallel efficiency: the same problem sequentially and on one worker.
	t0 := time.Now()
	apps.ReferencePageRank(k.g, 0.85, prIters)
	m.set("core.speedup_vs_seq.pr", ms(time.Since(t0).Nanoseconds())/runMS)
	one := grazelle.NewEngine(k.eng.Graph(), grazelle.Options{Workers: 1})
	defer one.Close()
	var w1 []float64
	for i := 0; i < 5; i++ {
		_, took, err := timedRun(ctx, one, "pr", grazelle.Params{Iters: prIters}, tr, "core.Run/pr.w1", i)
		if err != nil {
			return err
		}
		w1 = append(w1, took)
	}
	m.set("core.scaling_wN_over_w1.pr", median(w1)/runMS)
	dynamicForLayer(k.e.nproc, tr, m)
	return nil
}

// buildLayers times the representations core.BuildGraph derives, one call
// each, and reads the exact size figures of the pull-direction encoding.
func buildLayers(g *graph.Graph, tr *tracer, m *sink, suffix string) {
	m.set("gen.generate_ms"+suffix, tr.medianNS("gen.Generate"+suffix)/1e6)
	m.set("core.build_graph_ms"+suffix, tr.medianNS("core.BuildGraph"+suffix)/1e6)
	var csc *csr.Matrix
	tr.timed("csr.FromGraph"+suffix, noSpan, 0, func() {
		csr.FromGraph(g, false)
		csc = csr.FromGraph(g, true)
	})
	var vsd *vsparse.Array
	tr.timed("vsparse.FromCSR"+suffix, noSpan, 0, func() { vsd = vsparse.FromCSR(csc) })
	if suffix == "" {
		m.set("csr.from_graph_ms", tr.medianNS("csr.FromGraph")/1e6)
		m.set("vsparse.from_csr_ms", tr.medianNS("vsparse.FromCSR")/1e6)
	}
	m.set("vsparse.bytes_per_edge"+suffix, float64(vsd.MemoryBytes())/float64(g.NumEdges()))
	m.set("vsparse.packing_efficiency"+suffix, vsd.PackingEfficiency())
}

// kernelStats runs app once on a Trace-on engine — the direction string that
// marks sparse-frontier iterations ('s') is recorded only there — and reports
// the run's iteration counts, which repeat exactly. With shares it also
// reports the edge and vertex phases' parts of the run's wall time, which
// say whether a kernel change or a per-iteration-overhead change can pay.
func kernelStats(ctx context.Context, traced *grazelle.Engine, app string, p grazelle.Params, pair string, shares bool, m *sink) error {
	res, err := traced.Run(ctx, app, p)
	if err != nil {
		return err
	}
	st := res.Stats
	m.set("core.iterations."+pair, float64(st.Iterations))
	m.set("core.pull_iterations."+pair, float64(st.PullIterations))
	m.set("core.push_iterations."+pair, float64(st.PushIterations))
	m.set("core.sparse_iterations."+pair, float64(strings.Count(st.Directions, "s")))
	if shares {
		m.set("core.edge_share."+pair, float64(st.EdgeTime)/float64(st.Total))
		m.set("core.vertex_share."+pair, float64(st.VertexTime)/float64(st.Total))
	}
	return nil
}

// dynamicForLayer times the scheduler's dynamic loop with an empty body: the
// per-chunk cost every engine phase pays, which dominates on the mesh.
func dynamicForLayer(workers int, tr *tracer, m *sink) {
	pool := sched.NewPool(workers)
	defer pool.Close()
	const total, chunk, reps = 1 << 16, 64, 50
	id := tr.begin("sched.DynamicFor", noSpan, 0)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		pool.DynamicFor(total, chunk, func(sched.Range, int, int) {})
	}
	d := time.Since(t0)
	tr.end(id)
	m.set("sched.dynamic_for_ns_per_chunk", float64(d.Nanoseconds())/float64(reps*sched.NumChunks(total, chunk)))
}

// ---- kernel-frontier -------------------------------------------------------

// bfsRoots is how many seeded BFS roots one round runs on each graph.
const bfsRoots = 4

type frontierSide struct {
	spec       graphSpec
	suffix     string // appended to span and metric names
	g          *graph.Graph
	eng        *grazelle.Engine
	roots      []uint32
	components int
	reached    map[uint32]int
}

type kernelFrontier struct {
	e          *env
	seed       int64
	rmat, mesh frontierSide
}

func newKernelFrontier(e *env, seed int64) (instance, error) {
	return &kernelFrontier{
		e: e, seed: seed,
		rmat: frontierSide{spec: e.size.frontier},
		mesh: frontierSide{spec: e.size.mesh, suffix: ".mesh"},
	}, nil
}

func (k *kernelFrontier) sides() []*frontierSide { return []*frontierSide{&k.rmat, &k.mesh} }

func (k *kernelFrontier) setUp(_ context.Context, tr *tracer) (err error) {
	for _, s := range k.sides() {
		if s.g, s.eng, err = engineOn(s.spec, k.e.nproc, tr, s.suffix); err != nil {
			return err
		}
	}
	if k.rmat.reached == nil {
		k.oracle()
	}
	return nil
}

// oracle draws the seeded roots and computes the sequential references once;
// the graphs are the same on every set-up.
func (k *kernelFrontier) oracle() {
	rng := rand.New(rand.NewSource(k.seed))
	k.rmat.roots = hubRoots(k.rmat.g, rng, bfsRoots)
	k.mesh.roots = meshRoots(k.mesh.spec, k.mesh.g, rng, bfsRoots)
	for _, s := range k.sides() {
		s.components = componentsRef(s.g)
		s.reached = map[uint32]int{}
		for _, r := range s.roots {
			s.reached[r] = reachedRef(s.g, r)
		}
	}
}

// hubRoots draws n distinct roots from the 256 vertices of highest
// out-degree. A root drawn uniformly from an R-MAT graph is often a sink
// whose search ends at once; hubs all reach the giant component, so rounds
// cost the same whichever the seed picks.
func hubRoots(g *graph.Graph, rng *rand.Rand, n int) []uint32 {
	deg := g.OutDegrees()
	ids := make([]uint32, len(deg))
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	pool := ids[:min(256, len(ids))]
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	return append([]uint32(nil), pool[:min(n, len(pool))]...)
}

// meshRoots draws n roots in antithetic pairs: (r, c) and the cell half the
// grid away in both directions. A search's iteration count is the root's
// eccentricity, max(r, R-1-r) + max(c, C-1-c); the two of a pair sum to
// 1.5·(R+C) − 2 wherever the first lands, so a round's iteration total — and
// with it the round's cost — does not depend on the seed.
func meshRoots(spec graphSpec, g *graph.Graph, rng *rand.Rand, n int) []uint32 {
	rows, cols := meshDims(spec, g)
	var roots []uint32
	for len(roots) < n {
		r, c := rng.Intn(rows), rng.Intn(cols)
		roots = append(roots, uint32(r*cols+c), uint32((r+rows/2)%rows*cols+(c+cols/2)%cols))
	}
	return roots[:n]
}

// meshDims recovers the grid's side lengths: gen.Grid numbers vertices row
// by row, so the first vertex without an edge to its successor ends row 0.
func meshDims(spec graphSpec, g *graph.Graph) (rows, cols int) {
	next := map[uint32]bool{}
	for _, e := range g.Edges {
		if e.Dst == e.Src+1 {
			next[e.Src] = true
		}
	}
	cols = 1
	for next[uint32(cols-1)] {
		cols++
	}
	if g.NumVertices%cols != 0 {
		panic(fmt.Sprintf("bench: %v is not a row-major grid (%d vertices, first row %d)", spec, g.NumVertices, cols))
	}
	return g.NumVertices / cols, cols
}

func (k *kernelFrontier) tearDown() error {
	for _, s := range k.sides() {
		if s.eng != nil {
			s.eng.Close()
			s.eng = nil
		}
	}
	return nil
}

func (k *kernelFrontier) clients() int                    { return 1 }
func (k *kernelFrontier) primary() string                 { return "solve" }
func (k *kernelFrontier) finish(context.Context) []string { return nil }
func (k *kernelFrontier) procs() []*proc                  { return nil }
func (k *kernelFrontier) graphs() map[string]graphSize {
	out := map[string]graphSize{}
	for _, s := range k.sides() {
		for name, sz := range sizesOf(s.spec, s.g) {
			out[name] = sz
		}
	}
	return out
}

// op is one round: cc, then bfs from each seeded root, on the R-MAT graph
// and again on the mesh. Its latency is the sum of the ten runs' wall times;
// the checks between them are not on the clock.
func (k *kernelFrontier) op(ctx context.Context, _, i int, tr *tracer) outcome {
	round := 0.0
	for _, s := range k.sides() {
		res, took, err := timedRun(ctx, s.eng, "cc", grazelle.Params{}, tr, "core.Run/cc"+s.suffix, i)
		if err != nil {
			return failed("cc%s: %v", s.suffix, err)
		}
		got, _ := statValue(res, "components")
		if err := checkCount("components", int(got), s.components); err != nil {
			return failed("cc%s: %v", s.suffix, err)
		}
		round += took
		for _, root := range s.roots {
			res, took, err := timedRun(ctx, s.eng, "bfs", grazelle.Params{Root: root}, tr, "core.Run/bfs"+s.suffix, i)
			if err != nil {
				return failed("bfs%s root %d: %v", s.suffix, root, err)
			}
			got, _ := statValue(res, "reachable")
			if err := checkCount("reachable", int(got), s.reached[root]); err != nil {
				return failed("bfs%s root %d: %v", s.suffix, root, err)
			}
			round += took
		}
	}
	return outcome{samples: []sample{{"solve", round}}}
}

func (k *kernelFrontier) layers(ctx context.Context, tr *tracer, _ map[string][]float64, m *sink) error {
	for _, s := range k.sides() {
		buildLayers(s.g, tr, m, s.suffix)
		traced := grazelle.NewEngine(s.eng.Graph(), grazelle.Options{Workers: k.e.nproc, Trace: true})
		defer traced.Close()
		for _, app := range []string{"cc", "bfs"} {
			pair := app + s.suffix
			m.set("core.run_ms."+pair, tr.medianNS("core.Run/"+pair)/1e6)
			p := grazelle.Params{Root: s.roots[0]}
			if err := kernelStats(ctx, traced, app, p, pair, pair == "cc.mesh", m); err != nil {
				return err
			}
		}
	}
	dynamicForLayer(k.e.nproc, tr, m)
	return nil
}
