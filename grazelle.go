// Package grazelle is the public API of this reproduction of "Making
// Pull-Based Graph Processing Performant" (Grossman, Litz & Kozyrakis,
// PPoPP 2018). It wraps the Grazelle engine (internal/core) — a hybrid
// push/pull graph processing framework built on two ideas from the paper:
//
//   - Scheduler-aware parallel loops (§3): the pull engine's inner loop is
//     parallelized with StartChunk/LoopIteration/FinishChunk hooks and a
//     per-chunk merge buffer, eliminating synchronization and nearly all
//     shared write traffic.
//   - The Vector-Sparse format (§4): a padded, predicated, 64-bit-lane
//     edge encoding that makes the inner loop vectorizable with aligned,
//     unguarded vector loads (executed here by a software vector unit; see
//     DESIGN.md for the SIMD substitution).
//
// Basic use:
//
//	g, _ := grazelle.GenerateDataset("twitter-2010", 1.0)
//	e := grazelle.NewEngine(g, grazelle.Options{})
//	defer e.Close()
//	pr := e.PageRank(16)
//	fmt.Println("rank sum:", pr.Sum) // ≈ 1.0
package grazelle

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// Edge is a directed edge with an optional weight.
type Edge = graph.Edge

// Graph is an immutable graph preprocessed into every engine
// representation (CSR, CSC, and the Vector-Sparse VSS/VSD pair).
type Graph struct {
	core *core.Graph
}

// NewGraph builds a Graph from an edge list over numVertices vertices.
func NewGraph(numVertices int, edges []Edge, weighted bool) (*Graph, error) {
	g := &graph.Graph{NumVertices: numVertices, Edges: edges, Weighted: weighted}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return wrap(g), nil
}

func wrap(g *graph.Graph) *Graph {
	return &Graph{core: core.BuildGraph(g)}
}

// LoadGraph reads a graph from a file in the repository's binary format
// (see cmd/gengraph).
func LoadGraph(path string) (*Graph, error) {
	g, err := graph.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// LoadEdgeList reads a SNAP-style text edge list ("src dst [weight]" lines,
// '#'/'%' comments) — the distribution format of the paper's Table 1
// datasets.
func LoadEdgeList(path string) (*Graph, error) {
	g, err := graph.ReadEdgeListFile(path)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// LoadGraphPair reads the "-push"/"-pull" file pair written by SavePair or
// cmd/gengraph, mirroring the artifact's input convention.
func LoadGraphPair(base string) (*Graph, error) {
	push, _, err := graph.LoadPair(base)
	if err != nil {
		return nil, err
	}
	return wrap(push), nil
}

// GenerateDataset produces the synthetic analog of one of the paper's six
// Table 1 datasets by name or single-letter abbreviation (e.g.
// "twitter-2010" or "T") at the given scale (1.0 = default benchmark size).
func GenerateDataset(name string, scale float64) (*Graph, error) {
	d, err := gen.ParseDataset(name)
	if err != nil {
		return nil, err
	}
	return wrap(gen.Generate(d, scale)), nil
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.core.N }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return g.core.Edges }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.core.Weighted }

// PackingEfficiency returns the Vector-Sparse packing efficiency of the
// pull-direction (VSD) edge array — the Fig 9 metric.
func (g *Graph) PackingEfficiency() float64 { return g.core.VSD.PackingEfficiency() }

// Save writes the graph's "-push"/"-pull" binary file pair: its edges
// grouped by source, from CSR, and by destination, from CSC.
func (g *Graph) Save(base string) error {
	if err := g.core.CSR.WriteFile(base + "-push"); err != nil {
		return err
	}
	return g.core.CSC.WriteFile(base + "-pull")
}

// PullVariant selects the Edge-Pull inner-loop parallelization strategy.
type PullVariant = core.PullVariant

// Pull-engine variants (§3 and §6.1 of the paper).
const (
	SchedulerAware       = core.PullSchedulerAware
	Traditional          = core.PullTraditional
	TraditionalNonatomic = core.PullTraditionalNonatomic
	OuterOnly            = core.PullOuterOnly
)

// EngineMode selects which Edge-phase engine runs.
type EngineMode = core.EngineMode

// Engine modes.
const (
	Hybrid   = core.EngineHybrid
	PullOnly = core.EnginePullOnly
	PushOnly = core.EnginePushOnly
)

// Counters re-exports the execution counters collected when
// Options.Record is set.
type Counters = perfmodel.Counters

// Options configures an Engine. The zero value selects the paper's
// defaults: scheduler-aware vectorized pull, hybrid engine selection,
// GOMAXPROCS workers, one NUMA node, 32·workers dynamic chunks.
type Options struct {
	// Workers is the worker-thread count (0 = GOMAXPROCS).
	Workers int
	// Sockets simulates a multi-socket NUMA machine by partitioning the
	// edge arrays and classifying accesses (0 or 1 = single node).
	Sockets int
	// ChunkVectors is the dynamic-scheduling granularity in edge vectors
	// per chunk (0 = 32 chunks per worker, the paper's default).
	ChunkVectors int
	// Variant selects the pull-engine parallelization (default
	// SchedulerAware).
	Variant PullVariant
	// Scalar disables the software-vectorized kernels (the Fig 10
	// baseline).
	Scalar bool
	// Mode forces an engine (default Hybrid).
	Mode EngineMode
	// Record enables execution counters (small per-edge overhead).
	Record bool
	// Trace enables the per-run phase tracer: Stats gains a Phases
	// breakdown (wall time, chunks, frontier density per engine phase).
	// Overhead is phase-boundary-only — a fraction of a percent — so
	// serving layers keep it on.
	Trace bool
	// Partitions has no effect: every run executes as one iteration loop on
	// the engine's pool.
	//
	// Deprecated: partitioned execution was removed; leave the field unset.
	Partitions int
}

// Engine executes graph applications on one Graph. Engines hold a worker
// pool; Close them when done.
//
// An Engine is safe for concurrent use: any number of goroutines may run
// applications on one Engine at once. Each run executes in its own
// per-run context while the shared pool multiplexes their chunks over one
// worker set, so results are identical to solo runs. Run honors its
// context's cancellation and deadline at scheduler-chunk granularity; the
// per-application methods (PageRank, BFS, ...) run to completion.
type Engine struct {
	g *Graph
	r *core.Runner
}

// coreOptions maps the facade options onto the engine's, excluding the
// worker-pool concerns (Workers, Sockets/Topology) that NewEngine and the
// Store resolve differently.
func (opt Options) coreOptions() core.Options {
	return core.Options{
		ChunkVectors: opt.ChunkVectors,
		Variant:      opt.Variant,
		Scalar:       opt.Scalar,
		Mode:         opt.Mode,
		Record:       opt.Record,
		Trace:        opt.Trace,
	}
}

// NewEngine creates an engine for g.
func NewEngine(g *Graph, opt Options) *Engine {
	workers := opt.Workers
	copt := opt.coreOptions()
	copt.Workers = workers
	if opt.Sockets > 1 {
		w := workers
		if w < 1 {
			w = runtime.GOMAXPROCS(0)
		}
		per := w / opt.Sockets
		if per < 1 {
			per = 1
		}
		copt.Workers = per * opt.Sockets
		copt.Topology = numa.Topology{Nodes: opt.Sockets, WorkersPerNode: per}
	}
	return &Engine{g: g, r: core.NewRunner(g.core, copt)}
}

// Close releases the engine's worker pool. Close is idempotent; the
// engine must not be used after the first Close.
func (e *Engine) Close() { e.r.Close() }

// Graph returns the engine's graph.
func (e *Engine) Graph() *Graph { return e.g }

// PhaseStat is one engine phase's aggregate within a run's trace: wall
// time, chunk count, iteration count, and the frontier-density
// bounds observed when the phase ran.
type PhaseStat = obs.PhaseStat

// Stats summarizes a run.
type Stats struct {
	// Iterations counts Edge+Vertex rounds; Pull/Push split them by engine.
	Iterations, PullIterations, PushIterations int
	// Mode is the engine mode the run executed under ("Hybrid", "Pull",
	// "Push").
	Mode string
	// EdgeTime, VertexTime, and Total are wall-clock durations.
	EdgeTime, VertexTime, Total time.Duration
	// EdgeCounters and VertexCounters hold the perfmodel counters (zero
	// unless Options.Record was set).
	EdgeCounters, VertexCounters Counters
	// Phases is the per-phase breakdown (empty unless Options.Trace was
	// set): edge-pull, edge-push, vertex, and merge, in that order, with
	// phases that never ran omitted.
	Phases []PhaseStat
	// Directions is the per-iteration direction string (empty unless
	// Options.Trace was set): '<' pull, '>' push, 's' sparse, '+' elided
	// tail on very long runs.
	Directions string
}

func statsOf(res core.Result) Stats {
	return Stats{
		Iterations:     res.Iterations,
		PullIterations: res.PullIterations,
		PushIterations: res.PushIterations,
		Mode:           res.Mode.String(),
		EdgeTime:       res.EdgeTime,
		VertexTime:     res.VertexTime,
		Total:          res.Total,
		EdgeCounters:   res.EdgeCounters,
		VertexCounters: res.VertexCounters,
		Phases:         res.Trace.Phases,
		Directions:     res.Trace.Directions,
	}
}

// Params is the universal application parameter record (see apps.Params):
// each app reads the subset of fields its registry schema declares and
// ignores the rest.
type Params = apps.Params

// AppStat is one summary statistic of a generic run.
type AppStat = apps.Stat

// AppInfo describes one registered application: name, parameter schema,
// defaults, and whether it requires edge weights.
type AppInfo = apps.Info

// Apps enumerates the registered applications, sorted by name. This is the
// source of truth the CLI's `-a list` and serve's GET /v1/apps render.
func Apps() []AppInfo {
	entries := apps.All()
	out := make([]AppInfo, len(entries))
	for i, e := range entries {
		out[i] = e.Info()
	}
	return out
}

// AppResult holds the output of a generic Run: raw property lanes plus the
// registry entry's serializers for turning them into summary statistics,
// per-vertex value vectors, and text.
type AppResult struct {
	// App is the registry name the run dispatched to.
	App string
	// Params are the normalized parameters the run used.
	Params Params
	// Props are the raw 64-bit property lanes (app-specific encoding; use
	// Summary/Values/VertexText to decode).
	Props []uint64
	// Stats summarizes the run.
	Stats Stats

	entry apps.Entry
}

// Summary returns the run's headline statistics (e.g. PageRank's rank sum).
func (r *AppResult) Summary() []AppStat { return r.entry.Summary(r.Params, r.Props) }

// Values returns the JSON-facing per-vertex value vector ([]float64 ranks,
// []uint32 labels, []int64 parents, ... — app-dependent).
func (r *AppResult) Values() any { return r.entry.Values(r.Props) }

// VertexText renders vertex v's value as text (the CLI's -o format).
func (r *AppResult) VertexText(v int) string { return r.entry.VertexText(r.Props, v) }

// Run executes a registered application by name. Params fields the app's
// schema ignores are zeroed; fields it reads are used as given (so an
// explicit Iters of 0 runs zero iterations — callers wanting schema
// defaults applied should normalize via the registry first, as the CLI and
// serve do). Cancelling ctx, or passing its deadline, stops the run within
// one scheduler chunk; on mid-run errors the partial result is returned
// alongside the error. A nil result means the run never started (unknown
// app, invalid params, or an unweighted graph for a weighted app).
func (e *Engine) Run(ctx context.Context, app string, p Params) (*AppResult, error) {
	ent, err := apps.Lookup(app)
	if err != nil {
		return nil, err
	}
	p = ent.ZeroUnused(p)
	if ent.NeedsWeights && !e.g.Weighted() {
		return nil, fmt.Errorf("grazelle: %s requires a weighted graph", ent.Title)
	}
	prog, err := ent.New(e.g.core, p)
	if err != nil {
		return nil, err
	}
	res, err := core.RunCtx(ctx, e.r, prog, ent.MaxIters(p), nil)
	return &AppResult{
		App:    app,
		Params: p,
		Props:  res.Props,
		Stats:  statsOf(res),
		entry:  ent,
	}, err
}

// PageRankResult holds damped PageRank output.
type PageRankResult struct {
	// Ranks is the per-vertex rank vector.
	Ranks []float64
	// Sum is the total rank mass — the artifact's correctness check,
	// always very close to 1.0.
	Sum float64
	// Stats summarizes the run.
	Stats Stats
}

func rankResult(res *AppResult, err error) (PageRankResult, error) {
	if res == nil {
		return PageRankResult{}, err
	}
	return PageRankResult{
		Ranks: apps.Ranks(res.Props),
		Sum:   apps.RankSum(res.Props),
		Stats: res.Stats,
	}, err
}

// PageRank runs iters iterations of damped (0.85) PageRank with
// dangling-mass redistribution.
func (e *Engine) PageRank(iters int) PageRankResult {
	res, _ := rankResult(e.Run(context.Background(), "pr", Params{Iters: iters}))
	return res
}

// WeightedRank runs the Collaborative-Filtering-like weighted rank kernel
// (§6: PageRank's access pattern with edge weights folded in). The graph
// must be weighted.
func (e *Engine) WeightedRank(iters int) (PageRankResult, error) {
	return rankResult(e.Run(context.Background(), "wpr", Params{Iters: iters}))
}

// ComponentsResult holds Connected Components output.
type ComponentsResult struct {
	// Components maps each vertex to its component label (min-label
	// propagation along directed edges; true components on symmetric
	// graphs).
	Components []uint32
	// Stats summarizes the run.
	Stats Stats
}

// ConnectedComponents runs min-label propagation to a fixpoint.
func (e *Engine) ConnectedComponents() ComponentsResult {
	res, _ := e.Run(context.Background(), "cc", Params{})
	if res == nil {
		return ComponentsResult{}
	}
	return ComponentsResult{Components: apps.Components(res.Props), Stats: res.Stats}
}

// NoParent marks an unreached vertex in BFSResult.Parents.
const NoParent = int64(-1)

// BFSResult holds Breadth-First Search output.
type BFSResult struct {
	// Parents maps each vertex to its BFS parent (the root is its own
	// parent; unreached vertices hold NoParent).
	Parents []int64
	// Stats summarizes the run.
	Stats Stats
}

// BFS runs breadth-first search from root.
func (e *Engine) BFS(root uint32) BFSResult {
	res, _ := e.Run(context.Background(), "bfs", Params{Root: root})
	if res == nil {
		return BFSResult{}
	}
	return BFSResult{Parents: apps.Parents(res.Props), Stats: res.Stats}
}

// SSSPResult holds Single-Source Shortest Paths output.
type SSSPResult struct {
	// Dist maps each vertex to its shortest-path distance from the root
	// (+Inf when unreachable).
	Dist []float64
	// Stats summarizes the run.
	Stats Stats
}

// SSSP runs synchronous Bellman-Ford from root over non-negative edge
// weights. The graph must be weighted.
func (e *Engine) SSSP(root uint32) (SSSPResult, error) {
	res, err := e.Run(context.Background(), "sssp", Params{Root: root})
	if res == nil {
		return SSSPResult{}, err
	}
	return SSSPResult{Dist: apps.Distances(res.Props), Stats: res.Stats}, err
}

// Reachable reports how many vertices a BFS result visited.
func (r BFSResult) Reachable() int {
	n := 0
	for _, p := range r.Parents {
		if p != NoParent {
			n++
		}
	}
	return n
}

// NumComponents counts distinct labels in a components result. Labels are
// vertex ids (each component is labeled by its minimum member), so a dense
// bitmap over the vertex space beats a hash set by orders of magnitude on
// large graphs.
func (r ComponentsResult) NumComponents() int {
	seen := make([]bool, len(r.Components))
	n := 0
	for _, c := range r.Components {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n
}

// Finite reports how many vertices an SSSP result reached.
func (r SSSPResult) Finite() int {
	n := 0
	for _, d := range r.Dist {
		if !math.IsInf(d, 1) {
			n++
		}
	}
	return n
}
