package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
	"repro/internal/perfmodel"
	"repro/internal/testgraph"
)

type namedGraph struct {
	name string
	g    *graph.Graph
}

func testGraphs() []namedGraph {
	return []namedGraph{
		{"rmat", gen.RMAT(8, 1500, gen.DefaultRMAT, 1)},
		{"skewed", gen.RMAT(9, 3000, gen.RMATParams{A: 0.68, B: 0.16, C: 0.11, D: 0.05}, 2)},
		{"mesh", gen.Grid(11, 12, false, 3)},
	}
}

// engineConfigs spans the variant × kernel × mode space: every variant of the
// vectorized pull, and the scalar one, which is scheduler-aware only. The
// nonatomic variant appears only with one worker (its multi-worker output is
// intentionally unreliable; see TestNonatomicCompletes).
func engineConfigs() []Options {
	var out []Options
	for _, workers := range []int{1, 2, 4} {
		for _, variant := range []PullVariant{PullSchedulerAware, PullTraditional} {
			out = append(out, Options{Workers: workers, Variant: variant})
		}
		out = append(out, Options{Workers: workers, Scalar: true})
		out = append(out, Options{Workers: workers, Variant: PullSchedulerAware, Mode: EnginePushOnly})
		out = append(out, Options{Workers: workers, Variant: PullSchedulerAware, Mode: EnginePullOnly})
	}
	// Nonatomic, single worker: deterministic, must be exact.
	out = append(out, Options{Workers: 1, Variant: PullTraditionalNonatomic})
	// Tight granularity stresses chunk-boundary vertex splitting.
	out = append(out, Options{Workers: 4, Variant: PullSchedulerAware, ChunkVectors: 2})
	out = append(out, Options{Workers: 4, Variant: PullSchedulerAware, ChunkVectors: 2, Scalar: true})
	// Simulated NUMA topologies.
	out = append(out, Options{Workers: 4, Variant: PullSchedulerAware,
		Topology: numa.Topology{Nodes: 2, WorkersPerNode: 2}})
	out = append(out, Options{Workers: 4, Variant: PullSchedulerAware, Scalar: true,
		Topology: numa.Topology{Nodes: 4, WorkersPerNode: 1}})
	return out
}

func optName(o Options) string {
	return fmt.Sprintf("w%d-%s-scalar%v-%s-chunk%d-nodes%d",
		o.Workers, o.Variant, o.Scalar, o.Mode, o.ChunkVectors, o.Topology.Nodes)
}

func TestPageRankAllEngines(t *testing.T) {
	const iters = 12
	for _, tg := range testGraphs() {
		cg := BuildGraph(tg.g)
		want := apps.RunSequential(apps.NewPageRank(tg.g), tg.g, iters)
		for _, opt := range engineConfigs() {
			t.Run(tg.name+"/"+optName(opt), func(t *testing.T) {
				r := NewRunner(cg, opt)
				defer r.Close()
				got := Run(r, apps.NewPageRank(tg.g), iters)
				if got.Iterations != iters {
					t.Fatalf("ran %d iterations, want %d", got.Iterations, iters)
				}
				compareRanks(t, got.Props, want.Props)
				if sum := apps.RankSum(got.Props); math.Abs(sum-1) > 1e-9 {
					t.Errorf("rank sum = %v, want 1", sum)
				}
			})
		}
	}
}

func compareRanks(t *testing.T, got, want []uint64) {
	t.Helper()
	for v := range want {
		g, w := math.Float64frombits(got[v]), math.Float64frombits(want[v])
		if math.Abs(g-w) > 1e-10*(1+math.Abs(w)) {
			t.Fatalf("rank[%d] = %v, want %v", v, g, w)
		}
	}
}

func TestConnectedComponentsAllEngines(t *testing.T) {
	for _, tg := range testGraphs() {
		cg := BuildGraph(tg.g)
		want := apps.ReferenceComponents(tg.g)
		for _, opt := range engineConfigs() {
			t.Run(tg.name+"/"+optName(opt), func(t *testing.T) {
				r := NewRunner(cg, opt)
				defer r.Close()
				for _, p := range []*apps.ConnComp{apps.NewConnComp(), apps.NewConnCompWriteIntense()} {
					got := apps.Components(Run(r, p, 1<<20).Props)
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("%+v: component[%d] = %d, want %d", p, v, got[v], want[v])
						}
					}
				}
			})
		}
	}
}

func TestBFSAllEngines(t *testing.T) {
	for _, tg := range testGraphs() {
		cg := BuildGraph(tg.g)
		want := apps.ReferenceBFS(tg.g, 0)
		for _, opt := range engineConfigs() {
			t.Run(tg.name+"/"+optName(opt), func(t *testing.T) {
				r := NewRunner(cg, opt)
				defer r.Close()
				got := Run(r, apps.NewBFS(0), 1<<20)
				for v := range want {
					if got.Props[v] != want[v] {
						t.Fatalf("parent[%d] = %d, want %d", v, got.Props[v], want[v])
					}
				}
			})
		}
	}
}

func TestSSSPAllEngines(t *testing.T) {
	g := gen.AddUniformWeights(gen.RMAT(8, 1800, gen.DefaultRMAT, 7), 8)
	cg := BuildGraph(g)
	want := apps.ReferenceSSSP(g, 0)
	for _, opt := range engineConfigs() {
		t.Run(optName(opt), func(t *testing.T) {
			r := NewRunner(cg, opt)
			defer r.Close()
			got := apps.Distances(Run(r, apps.NewSSSP(0), 1<<20).Props)
			for v := range want {
				if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
					t.Fatalf("reachability of %d differs", v)
				}
				if !math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-9 {
					t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
				}
			}
		})
	}
}

// TestSSSPUnweighted: sssp on a graph without weights reads every weight as
// 0 on every path, the pull's full-vector fast path included, so each engine
// reaches the reference's distances with the same lanes.
func TestSSSPUnweighted(t *testing.T) {
	for _, c := range testgraph.Corpus() {
		if c.G.Weighted {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			cg := BuildGraph(c.G)
			want := apps.ReferenceSSSP(c.G, c.Root)
			var first []uint64
			for _, opt := range []Options{{Mode: EngineHybrid}, {Mode: EnginePullOnly}, {Mode: EnginePushOnly}, {Scalar: true}} {
				opt.Workers = 2
				r := NewRunner(cg, opt)
				res, err := RunCtx(context.Background(), r, apps.NewSSSP(c.Root), 1<<20, nil)
				r.Close()
				if err != nil {
					t.Fatalf("%s: %v", optName(opt), err)
				}
				for v, d := range apps.Distances(res.Props) {
					if d != want[v] {
						t.Fatalf("%s: dist[%d] = %v, want %v", optName(opt), v, d, want[v])
					}
				}
				if first == nil {
					first = res.Props
				} else if !slices.Equal(res.Props, first) {
					t.Fatalf("%s: lanes differ from %s's", optName(opt), optName(Options{Workers: 2}))
				}
			}
		})
	}
}

func TestWeightedRankEngine(t *testing.T) {
	g := gen.AddUniformWeights(gen.RMAT(7, 900, gen.DefaultRMAT, 4), 5)
	cg := BuildGraph(g)
	want := apps.RunSequential(apps.NewWeightedRank(g), g, 10)
	r := NewRunner(cg, Options{Workers: 4})
	defer r.Close()
	got := Run(r, apps.NewWeightedRank(g), 10)
	compareRanks(t, got.Props, want.Props)
}

func TestHybridSelectsPullForPageRank(t *testing.T) {
	g := gen.RMAT(7, 800, gen.DefaultRMAT, 1)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	res := Run(r, apps.NewPageRank(g), 5)
	// §6.2: "Grazelle exclusively selects Edge-Pull for [PageRank's]
	// execution".
	if res.PullIterations != 5 || res.PushIterations != 0 {
		t.Errorf("PR iterations: pull=%d push=%d, want 5/0", res.PullIterations, res.PushIterations)
	}
}

func TestHybridSwitchesForBFS(t *testing.T) {
	// A long path keeps the frontier at one vertex: hybrid must pick push
	// every iteration.
	b := graph.NewBuilder(256)
	for v := uint32(0); v < 255; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.MustBuild()
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	res := Run(r, apps.NewBFS(0), 1<<20)
	if res.PushIterations == 0 {
		t.Error("hybrid never chose push on a sparse frontier")
	}
	if res.PullIterations != 0 {
		t.Errorf("hybrid chose pull %d times on a always-sparse frontier", res.PullIterations)
	}
	// CC starts with a full frontier: the first iteration must be pull.
	res = Run(r, apps.NewConnComp(), 1<<20)
	if res.PullIterations == 0 {
		t.Error("hybrid never chose pull for CC's dense initial frontier")
	}
}

func TestForcedModes(t *testing.T) {
	g := gen.RMAT(7, 700, gen.DefaultRMAT, 2)
	cg := BuildGraph(g)
	for _, mode := range []EngineMode{EnginePullOnly, EnginePushOnly} {
		r := NewRunner(cg, Options{Workers: 2, Mode: mode})
		res := Run(r, apps.NewConnComp(), 1<<20)
		if mode == EnginePullOnly && res.PushIterations != 0 {
			t.Error("EnginePullOnly ran push")
		}
		if mode == EnginePushOnly && res.PullIterations != 0 {
			t.Error("EnginePushOnly ran pull")
		}
		r.Close()
	}
}

// TestNonatomicCompletes runs the intentionally-racy configuration with
// multiple workers, asserting only that it terminates and produces a
// plausible rank mass — mirroring the paper, which reports its performance
// "even though it leads to incorrect output".
func TestNonatomicCompletes(t *testing.T) {
	if raceEnabled {
		t.Skip("nonatomic variant is intentionally racy; skipped under -race")
	}
	g := gen.RMAT(8, 1500, gen.DefaultRMAT, 3)
	r := NewRunner(BuildGraph(g), Options{Workers: 4, Variant: PullTraditionalNonatomic})
	defer r.Close()
	res := Run(r, apps.NewPageRank(g), 5)
	if res.Iterations != 5 {
		t.Errorf("ran %d iterations", res.Iterations)
	}
	if sum := apps.RankSum(res.Props); math.IsNaN(sum) || sum <= 0 || sum > 2 {
		t.Errorf("implausible rank sum %v", sum)
	}
}

func TestCountersSchedulerAwareVsTraditional(t *testing.T) {
	g := gen.RMAT(9, 5000, gen.RMATParams{A: 0.65, B: 0.17, C: 0.12, D: 0.06}, 5)
	cg := BuildGraph(g)
	run := func(variant PullVariant) Result {
		r := NewRunner(cg, Options{Workers: 2, Variant: variant, Record: true, ChunkVectors: 16})
		defer r.Close()
		return Run(r, apps.NewPageRank(g), 3)
	}
	sa := run(PullSchedulerAware)
	trad := run(PullTraditional)

	if sa.EdgeCounters.AtomicOps != 0 {
		t.Errorf("scheduler-aware issued %d atomics, want 0 (the §3 claim)", sa.EdgeCounters.AtomicOps)
	}
	if trad.EdgeCounters.AtomicOps == 0 {
		t.Error("traditional issued no atomics")
	}
	if sa.EdgeCounters.SharedWrites >= trad.EdgeCounters.SharedWrites {
		t.Errorf("scheduler-aware shared writes (%d) not below traditional (%d)",
			sa.EdgeCounters.SharedWrites, trad.EdgeCounters.SharedWrites)
	}
	if sa.EdgeCounters.TLSWrites == 0 {
		t.Error("scheduler-aware recorded no TLS writes")
	}
	if sa.EdgeCounters.MergeOps == 0 {
		t.Error("scheduler-aware recorded no merge operations")
	}
	if sa.EdgeCounters.EdgesProcessed != trad.EdgeCounters.EdgesProcessed {
		t.Errorf("edge counts differ: %d vs %d",
			sa.EdgeCounters.EdgesProcessed, trad.EdgeCounters.EdgesProcessed)
	}
	// PageRank processes every edge every iteration.
	if want := uint64(g.NumEdges() * 3); sa.EdgeCounters.EdgesProcessed != want {
		t.Errorf("EdgesProcessed = %d, want %d", sa.EdgeCounters.EdgesProcessed, want)
	}
}

// TestNUMACountersClassifyAccesses: under Record every kernel classifies each
// edge it processes as one local or one remote read of its source, against
// the worker's simulated node. Nonatomic is left out: it races at two
// workers.
func TestNUMACountersClassifyAccesses(t *testing.T) {
	g := gen.RMAT(8, 2000, gen.DefaultRMAT, 6)
	cg := BuildGraph(g)
	for _, v := range []PullVariant{PullSchedulerAware, PullTraditional} {
		for _, scalar := range []bool{false, true} {
			if scalar && v != PullSchedulerAware {
				continue // the scalar pull is scheduler-aware only
			}
			t.Run(fmt.Sprintf("%v/scalar=%v", v, scalar), func(t *testing.T) {
				run := func(topo numa.Topology) perfmodel.Counters {
					r := NewRunner(cg, Options{Workers: 2, Record: true, Variant: v, Scalar: scalar, Topology: topo})
					defer r.Close()
					return Run(r, apps.NewPageRank(g), 2).EdgeCounters
				}
				if single := run(numa.Topology{Nodes: 1, WorkersPerNode: 2}); single.RemoteAccesses != 0 {
					t.Errorf("single node recorded %d remote accesses", single.RemoteAccesses)
				}
				dual := run(numa.Topology{Nodes: 2, WorkersPerNode: 1})
				if dual.RemoteAccesses == 0 {
					t.Error("two nodes recorded no remote accesses on a scale-free graph")
				}
				if total := dual.RemoteAccesses + dual.LocalAccesses; total != dual.EdgesProcessed {
					t.Errorf("local+remote (%d) != edges processed (%d)", total, dual.EdgesProcessed)
				}
			})
		}
	}
}

// TestOwnedRangesMatchOwner: the per-node ranges a Record run classifies
// reads with give every vertex to exactly the node numa.PropertyMap.Owner
// names, also when there are fewer vertices than nodes.
func TestOwnedRangesMatchOwner(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 4, 7} {
		topo := numa.Topology{Nodes: nodes, WorkersPerNode: 1}
		for _, n := range []int{0, 1, 2, 3, 5, 64, 1000, 1001} {
			owned := ownedRanges(n, topo)
			owner := numa.NewPropertyMap(n, topo)
			for v := uint32(0); v < uint32(n); v++ {
				for node, o := range owned {
					if got, want := o.has(v), owner.Owner(v) == node; got != want {
						t.Fatalf("n=%d nodes=%d: node %d has(%d) = %v, Owner says %d", n, nodes, node, v, got, owner.Owner(v))
					}
				}
			}
		}
	}
}

func TestVectorCountersMatchFormat(t *testing.T) {
	g := gen.RMAT(8, 1200, gen.DefaultRMAT, 9)
	cg := BuildGraph(g)
	r := NewRunner(cg, Options{Workers: 2, Record: true})
	defer r.Close()
	res := Run(r, apps.NewPageRank(g), 1)
	if got, want := res.EdgeCounters.VectorsProcessed, uint64(cg.VSD.NumVectors()); got != want {
		t.Errorf("VectorsProcessed = %d, want %d", got, want)
	}
	wantInvalid := uint64(cg.VSD.NumVectors()*4 - cg.VSD.ValidEdges)
	if got := res.EdgeCounters.InvalidLanes; got != wantInvalid {
		t.Errorf("InvalidLanes = %d, want %d", got, wantInvalid)
	}
}

func TestRunnerReuseAcrossPrograms(t *testing.T) {
	g := gen.Grid(10, 10, false, 1)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	pr := Run(r, apps.NewPageRank(g), 5)
	if math.Abs(apps.RankSum(pr.Props)-1) > 1e-9 {
		t.Error("first run wrong")
	}
	bfs := Run(r, apps.NewBFS(0), 1<<20)
	want := apps.ReferenceBFS(g, 0)
	for v := range want {
		if bfs.Props[v] != want[v] {
			t.Fatalf("second run: parent[%d] = %d, want %d", v, bfs.Props[v], want[v])
		}
	}
	// And PageRank again: state must fully reset.
	pr2 := Run(r, apps.NewPageRank(g), 5)
	compareRanks(t, pr2.Props, pr.Props)
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(10).MustBuild()
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	res := Run(r, apps.NewPageRank(g), 3)
	if res.Iterations != 3 {
		t.Errorf("empty graph ran %d iterations", res.Iterations)
	}
	if math.Abs(apps.RankSum(res.Props)-1) > 1e-9 {
		t.Error("empty-graph rank sum wrong (dangling mass must recirculate)")
	}
	bfs := Run(r, apps.NewBFS(3), 1<<20)
	if bfs.Props[3] != 3 {
		t.Error("BFS root lost on empty graph")
	}
}

// pathRunner returns a tracing Runner over an n-vertex directed path, on
// which BFS from vertex 0 reaches vertex k in round k and nobody in round n.
func pathRunner(n int) *Runner {
	b := graph.NewBuilder(n)
	for v := uint32(0); int(v)+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return NewRunner(BuildGraph(b.MustBuild()), Options{Workers: 2, Trace: true})
}

// TestRunLoopMaxIters pins the iteration loop's cap: a run whose frontier
// would outlast maxIters stops there with Iterations == maxIters and one
// direction mark per round.
func TestRunLoopMaxIters(t *testing.T) {
	const n = 6
	r := pathRunner(n)
	defer r.Close()
	for _, maxIters := range []int{1, 3, n} {
		res := Run(r, apps.NewBFS(0), maxIters)
		if res.Iterations != maxIters || len(res.Trace.Directions) != maxIters {
			t.Errorf("maxIters %d: %d iterations, directions %q; want %d of each",
				maxIters, res.Iterations, res.Trace.Directions, maxIters)
		}
	}
}

// TestRunLoopSchedule pins the iteration loop's other exit: an uncapped run
// stops at the census that finds the frontier empty without counting or
// tracing that round, so it reports n iterations and n direction marks, each
// one of the three directions the policy chooses between.
func TestRunLoopSchedule(t *testing.T) {
	const n = 6
	r := pathRunner(n)
	defer r.Close()
	res := Run(r, apps.NewBFS(0), 1<<20)
	if res.Iterations != n || len(res.Trace.Directions) != n {
		t.Fatalf("%d iterations, directions %q; want %d of each",
			res.Iterations, res.Trace.Directions, n)
	}
	for i := 0; i < n; i++ {
		switch res.Trace.Directions[i] {
		case dirPull.Mark(), dirPush.Mark(), dirSparse.Mark():
		default:
			t.Errorf("round %d traced %q, not a direction mark", i, res.Trace.Directions[i])
		}
	}
}

func TestTopologyMismatchPanics(t *testing.T) {
	g := gen.ErdosRenyi(20, 40, 1)
	defer func() {
		if recover() == nil {
			t.Error("mismatched topology did not panic")
		}
	}()
	NewRunner(BuildGraph(g), Options{Workers: 2, Topology: numa.Topology{Nodes: 3, WorkersPerNode: 2}})
}
