package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/csr"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/perfmodel"
	"repro/internal/testgraph"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// frontierWorkGraph is the corpus's skewed fixture — hubs whose in-edge runs
// span many vectors (and, at ChunkVectors 1 and 3, many chunks), self-loops,
// duplicate edges, isolated vertices, and a root of in-degree 0 — every shape
// the early-exit jump has to survive. It returns the root too.
func frontierWorkGraph() (*graph.Graph, uint32) {
	c := testgraph.Skewed()
	return c.G, c.Root
}

type frontierWorkApp struct {
	name string
	mk   func() apps.Program
	want []uint64
}

func frontierWorkApps(g *graph.Graph, root uint32) []frontierWorkApp {
	dist := apps.ReferenceSSSP(g, root)
	distBits := make([]uint64, len(dist))
	for v, d := range dist {
		distBits[v] = math.Float64bits(d)
	}
	cc := apps.ReferenceComponents(g)
	ccBits := make([]uint64, len(cc))
	for v, c := range cc {
		ccBits[v] = uint64(c)
	}
	return []frontierWorkApp{
		{"bfs", func() apps.Program { return apps.NewBFS(root) }, apps.ReferenceBFS(g, root)},
		{"cc", func() apps.Program { return apps.NewConnComp() }, ccBits},
		{"sssp", func() apps.Program { return apps.NewSSSP(root) }, distBits},
		{"kcore", func() apps.Program { return apps.NewKCore(vsparse.FromCSR(csr.FromGraph(g, true)), 3) }, apps.ReferenceKCore(g, 3)},
	}
}

// TestFrontierWorkBitIdentity: the shipped kernels (early-exit pull, the
// unpredicated full-frontier iteration, the identity-skipping Vertex phase,
// the list-driven round, inline rounds), the paper configuration and the
// sequential references agree bit for bit, at every worker and chunk-size
// combination. Pull-only runs put every iteration through the
// early-exit kernel; hybrid runs mix it with list-driven rounds. At
// ChunkVectors 1 every multi-vector destination straddles chunks. cc and
// kcore start from a full frontier, so their first iteration is the
// unpredicated one; every app's later iterations leave most 4-vertex groups
// with identity aggregates for the Vertex phase to skip
// (TestRecordCountersUnderEarlyExit counts them).
func TestFrontierWorkBitIdentity(t *testing.T) {
	g, root := frontierWorkGraph()
	cg := BuildGraph(g)
	if in := cg.VSD.Degree(root); in != 0 {
		t.Fatalf("root in-degree = %d, want 0", in)
	}
	if hub := cg.VSD.Index[6] - cg.VSD.Index[5]; hub < 8 {
		t.Fatalf("hub spans %d vectors, want a run long enough to straddle chunks", hub)
	}
	fullStarts := 0
	for _, app := range frontierWorkApps(g, root) {
		t.Run(app.name, func(t *testing.T) {
			start := frontier.NewDense(cg.N)
			app.mk().InitFrontier(start)
			exits, lists := false, false
			for _, mode := range []EngineMode{EngineHybrid, EnginePullOnly} {
				for _, workers := range []int{1, 2, 4} {
					for _, chunk := range []int{1, 3, 0} {
						for _, ablate := range []bool{false, true} {
							opt := Options{Workers: workers, ChunkVectors: chunk,
								Mode: mode, AblateFrontierWork: ablate, Trace: true}
							r := NewRunner(cg, opt)
							res := Run(r, app.mk(), 1<<20)
							r.Close()
							label := fmt.Sprintf("%v w%d chunk%d ablate=%v", mode, workers, chunk, ablate)
							for v := range app.want {
								if res.Props[v] != app.want[v] {
									t.Fatalf("%s: lane[%d] = %#x, reference %#x", label, v, res.Props[v], app.want[v])
								}
							}
							if ablate && res.SparseIterations != 0 {
								t.Fatalf("%s: %d list-driven rounds under the ablation", label, res.SparseIterations)
							}
							if start.Full() && res.Trace.Directions[0] != '<' {
								t.Fatalf("%s: full first frontier went %q, want pull", label, res.Trace.Directions[0])
							}
							exits = exits || (!ablate && res.PullIterations > 0)
							lists = lists || res.SparseIterations > 0
						}
					}
				}
			}
			if !exits || !lists {
				t.Errorf("matrix never ran a pull iteration (%v) or a list-driven round (%v)", exits, lists)
			}
			if start.Full() {
				fullStarts++
			}
		})
	}
	if fullStarts == 0 {
		t.Error("no app starts from a full frontier: the unpredicated iteration never ran")
	}
}

// assertRunsAscending checks the invariant saturation depends on: within
// every destination's VSD run the valid lanes are non-decreasing by source.
func assertRunsAscending(t *testing.T, a *vsparse.Array) {
	t.Helper()
	for dst := 0; dst < a.N; dst++ {
		prev := uint32(0)
		for vi := a.Index[dst]; vi < a.Index[dst+1]; vi++ {
			v := a.Vector(vi)
			mask := vsparse.Valid(v)
			for lane := 0; lane < vec.Lanes; lane++ {
				if !mask.Bit(lane) {
					continue
				}
				if src := v[lane] & vsparse.VertexMask; src < prev {
					t.Fatalf("destination %d: source %d follows %d in vector %d", dst, src, prev, vi)
				} else {
					prev = src
				}
			}
		}
	}
}

// TestVSDRunsAscendingBySource: BuildGraph's pull-direction runs are sorted
// whatever order the edge list arrives in — including the base-order-plus-
// appended-inserts list graph.ApplyEdgeOps produces for a mutated version.
func TestVSDRunsAscendingBySource(t *testing.T) {
	g, _ := frontierWorkGraph()
	assertRunsAscending(t, BuildGraph(g).VSD)

	n := uint32(g.NumVertices)
	var ops []graph.EdgeOp
	for i := uint32(0); i < 40; i++ {
		// Inserts land after every base edge of their destination yet carry
		// smaller sources; two of them grow the vertex set.
		ops = append(ops, graph.EdgeOp{Src: (n - 1 - i*3) % n, Dst: 5, Weight: 1})
		ops = append(ops, graph.EdgeOp{Delete: true, Src: g.Edges[i*7].Src, Dst: g.Edges[i*7].Dst})
	}
	ops = append(ops, graph.EdgeOp{Src: n + 4, Dst: 5, Weight: 1}, graph.EdgeOp{Src: 0, Dst: n + 4, Weight: 1})
	mutated := graph.ApplyEdgeOps(g, ops)
	cg := BuildGraph(mutated)
	if err := cg.VSD.Validate(); err != nil {
		t.Fatal(err)
	}
	assertRunsAscending(t, cg.VSD)
}

// TestRecordCountersUnderEarlyExit pins what the Record counters mean for
// work the shipped kernels do not do: nothing. VectorsProcessed counts
// vectors whose lanes the kernel loaded and FrontierSkips the lanes a test it
// made rejected, so a vector an early exit jumps over is charged to no
// counter and the saving reads as pullIterations × NumVectors −
// VectorsProcessed. Likewise a 4-vertex group the Vertex phase skips because
// nothing reached it is charged to no counter: Vertex SharedWrites falls
// below the paper configuration's 2·N per iteration by two per skipped
// vertex. PageRank, which neither converges nor saturates nor uses a
// frontier, counts exactly as in the paper configuration.
func TestRecordCountersUnderEarlyExit(t *testing.T) {
	g, root := frontierWorkGraph()
	cg := BuildGraph(g)
	run := func(p apps.Program, iters int, ablate bool) Result {
		r := NewRunner(cg, Options{Workers: 2, Record: true, Mode: EnginePullOnly, AblateFrontierWork: ablate})
		defer r.Close()
		return Run(r, p, iters)
	}

	shipped, paper := run(apps.NewPageRank(g), 3, false), run(apps.NewPageRank(g), 3, true)
	if shipped.EdgeCounters != paper.EdgeCounters || shipped.VertexCounters != paper.VertexCounters {
		t.Errorf("PageRank counters moved:\n shipped %+v\n paper   %+v", shipped.EdgeCounters, paper.EdgeCounters)
	}
	if got, want := shipped.EdgeCounters.VectorsProcessed, uint64(3*cg.VSD.NumVectors()); got != want {
		t.Errorf("PageRank VectorsProcessed = %d, want %d", got, want)
	}

	shipped, paper = run(apps.NewBFS(root), 1<<20, false), run(apps.NewBFS(root), 1<<20, true)
	full := uint64(paper.PullIterations * cg.VSD.NumVectors())
	if paper.EdgeCounters.VectorsProcessed != full {
		t.Errorf("paper BFS VectorsProcessed = %d, want every vector every iteration (%d)",
			paper.EdgeCounters.VectorsProcessed, full)
	}
	if shipped.PullIterations != paper.PullIterations {
		t.Fatalf("iterations differ: %d vs %d", shipped.PullIterations, paper.PullIterations)
	}
	if got := shipped.EdgeCounters.VectorsProcessed; got >= full {
		t.Errorf("early-exit BFS VectorsProcessed = %d, want fewer than %d", got, full)
	}
	// A saturating program examines at most one live edge per destination
	// and chunk, so it gathers far fewer edges than the full scan.
	if shipped.EdgeCounters.EdgesProcessed >= paper.EdgeCounters.EdgesProcessed {
		t.Errorf("early-exit BFS EdgesProcessed = %d, paper configuration %d",
			shipped.EdgeCounters.EdgesProcessed, paper.EdgeCounters.EdgesProcessed)
	}
	if shipped.EdgeCounters.FrontierSkips > paper.EdgeCounters.FrontierSkips {
		t.Errorf("early-exit BFS FrontierSkips = %d exceeds the full scan's %d",
			shipped.EdgeCounters.FrontierSkips, paper.EdgeCounters.FrontierSkips)
	}

	// The Vertex phase: the paper configuration applies every vertex every
	// iteration; the shipped one skips idle groups and counts nothing for
	// them.
	for _, app := range frontierWorkApps(g, root) {
		shipped, paper := run(app.mk(), 1<<20, false), run(app.mk(), 1<<20, true)
		all := uint64(2 * cg.N * paper.Iterations)
		if got := paper.VertexCounters.SharedWrites; got != all {
			t.Errorf("%s: paper Vertex SharedWrites = %d, want 2·N·iterations = %d", app.name, got, all)
		}
		// An in-place program may finish in fewer iterations than the paper
		// configuration; everything else takes exactly as many.
		sameIters := shipped.Iterations == paper.Iterations
		if apps.IsMonotoneMin(app.mk()) {
			sameIters = shipped.Iterations <= paper.Iterations
		}
		if got := shipped.VertexCounters.SharedWrites; !sameIters || got >= all {
			t.Errorf("%s: shipped Vertex SharedWrites = %d over %d iterations, want fewer than %d over %d",
				app.name, got, shipped.Iterations, all, paper.Iterations)
		}
	}
	assertEdgeCountersPinned(t, g, root, cg)
}

// assertEdgeCountersPinned holds the Edge-phase Record counters of the
// shipped configuration to the values measured before the kernels' lane
// counters moved under `rec != nil`, the frontier test went branch-free and
// the full-frontier iteration went unpredicated: none of that may change
// what a Record run reports. Pull-only rows cover the pull kernel alone;
// hybrid rows (one worker, so no CAS retry can vary) add the dense-scan push
// and the list-driven round. The reference kernels' rows (the traditional,
// nonatomic and scalar cells of the equivalence matrix) were measured on the
// separate Edge-Pull functions those kernels had before they became one run
// walk per layout, and that fold left them as they were.
//
// The cc Pull and both sssp rows were re-pinned once, when in-place pull
// landed: those runs pull more than inPlaceAfter times, and from the fourth
// pull on they read through the window on the inPlaceSpans grid — 571 vectors
// in 8 chunks of 72 — so MergeOps falls with the chunk count and a fresher
// read moves a few edges between processed and skipped. cc Hybrid pulls three
// times and is byte-identical, as are bfs, kcore and pr, which do not carry
// the trait.
//
// The ppr, wpr (on g's weighted version), lp and cc write-intense rows, the
// full-vector ablation's cc, bfs and sssp rows and the paper configuration's
// bfs and cc rows were measured while each of those paths still charged its
// counters inside its own chunk walk. They hold every body's counters by
// number, independently of the walk the other tests compare against.
func assertEdgeCountersPinned(t *testing.T, g *graph.Graph, root uint32, cg *Graph) {
	t.Helper()
	// wpr runs on the weighted version of g, every other row on g.
	gw := gen.AddUniformWeights(g, 97)
	cgw := BuildGraph(gw)
	mk := map[string]func() apps.Program{
		"pr":               func() apps.Program { return apps.NewPageRank(g) },
		"ppr":              func() apps.Program { return apps.NewPersonalizedPageRank(g, root) },
		"wpr":              func() apps.Program { return apps.NewWeightedRank(gw) },
		"lp":               func() apps.Program { return apps.NewLabelProp() },
		"cc-write-intense": func() apps.Program { return apps.NewConnCompWriteIntense() },
	}
	for _, app := range frontierWorkApps(g, root) {
		mk[app.name] = app.mk
	}
	pull := func(w int) Options { return Options{Mode: EnginePullOnly, Workers: w} }
	hybrid := Options{Mode: EngineHybrid, Workers: 1}
	fullVector := Options{Mode: EnginePullOnly, Workers: 2, AblateFullVector: true}
	paper := Options{Mode: EnginePullOnly, Workers: 2, AblateFrontierWork: true}
	// The reference kernels' cells at one worker (no CAS retry can vary) and
	// three vectors per chunk (hub runs straddle chunks, so every boundary
	// arm runs).
	cell := func(v PullVariant, scalar bool) Options {
		return Options{Mode: EnginePullOnly, Workers: 1, ChunkVectors: 3, Variant: v, Scalar: scalar}
	}
	trad, nonatomic, scalar := cell(PullTraditional, false), cell(PullTraditionalNonatomic, false), cell(PullSchedulerAware, true)
	pinned := []struct {
		app  string
		opt  Options
		want perfmodel.Counters
	}{
		{"bfs", pull(2), perfmodel.Counters{EdgesProcessed: 195, VectorsProcessed: 1520, TLSWrites: 195, SharedWrites: 138, MergeOps: 320, FrontierSkips: 4565, InvalidLanes: 1155, LocalAccesses: 195}},
		{"bfs", hybrid, perfmodel.Counters{EdgesProcessed: 187, VectorsProcessed: 668, TLSWrites: 171, SharedWrites: 159, MergeOps: 96, FrontierSkips: 1729, InvalidLanes: 591, LocalAccesses: 171}},
		{"cc", pull(2), perfmodel.Counters{EdgesProcessed: 3817, VectorsProcessed: 2284, TLSWrites: 3817, SharedWrites: 396, MergeOps: 200, FrontierSkips: 3983, InvalidLanes: 1336, LocalAccesses: 3817}},
		{"cc", hybrid, perfmodel.Counters{EdgesProcessed: 3817, VectorsProcessed: 1721, TLSWrites: 3801, SharedWrites: 424, MergeOps: 96, FrontierSkips: 2049, InvalidLanes: 1002, LocalAccesses: 3801, SkippedWrites: 6}},
		{"sssp", pull(2), perfmodel.Counters{EdgesProcessed: 4448, VectorsProcessed: 3997, TLSWrites: 4448, SharedWrites: 635, MergeOps: 224, FrontierSkips: 9202, InvalidLanes: 2338, LocalAccesses: 4448}},
		{"sssp", hybrid, perfmodel.Counters{EdgesProcessed: 4453, VectorsProcessed: 2871, TLSWrites: 4407, SharedWrites: 669, MergeOps: 112, FrontierSkips: 5343, InvalidLanes: 1670, LocalAccesses: 4407, SkippedWrites: 5}},
		{"kcore", pull(2), perfmodel.Counters{EdgesProcessed: 176, VectorsProcessed: 1142, TLSWrites: 176, SharedWrites: 54, MergeOps: 128, FrontierSkips: 3724, InvalidLanes: 668, LocalAccesses: 176}},
		{"kcore", hybrid, perfmodel.Counters{EdgesProcessed: 176, VectorsProcessed: 571, TLSWrites: 176, SharedWrites: 59, MergeOps: 32, FrontierSkips: 1774, InvalidLanes: 334, LocalAccesses: 176}},
		{"pr", pull(2), perfmodel.Counters{EdgesProcessed: 5850, VectorsProcessed: 1713, TLSWrites: 5850, SharedWrites: 474, MergeOps: 192, InvalidLanes: 1002, LocalAccesses: 5850}},
		{"pr", hybrid, perfmodel.Counters{EdgesProcessed: 5850, VectorsProcessed: 1713, TLSWrites: 5850, SharedWrites: 507, MergeOps: 96, InvalidLanes: 1002, LocalAccesses: 5850}},
		{"ppr", pull(2), perfmodel.Counters{EdgesProcessed: 5850, VectorsProcessed: 1713, TLSWrites: 5850, SharedWrites: 245, MergeOps: 192, InvalidLanes: 1002, LocalAccesses: 5850}},
		{"wpr", pull(2), perfmodel.Counters{EdgesProcessed: 5850, VectorsProcessed: 1713, TLSWrites: 5850, SharedWrites: 474, MergeOps: 192, InvalidLanes: 1002, LocalAccesses: 5850}},
		{"lp", pull(2), perfmodel.Counters{EdgesProcessed: 5850, VectorsProcessed: 1713, TLSWrites: 5850, SharedWrites: 474, MergeOps: 192, InvalidLanes: 1002, LocalAccesses: 5850}},
		{"cc-write-intense", pull(2), perfmodel.Counters{EdgesProcessed: 3817, VectorsProcessed: 2284, TLSWrites: 3817, SharedWrites: 396, MergeOps: 200, FrontierSkips: 3983, InvalidLanes: 1336, LocalAccesses: 3817}},
		{"cc", fullVector, perfmodel.Counters{EdgesProcessed: 3817, VectorsProcessed: 2284, TLSWrites: 3817, SharedWrites: 396, MergeOps: 200, FrontierSkips: 3983, InvalidLanes: 1336, LocalAccesses: 3817}},
		{"bfs", fullVector, perfmodel.Counters{EdgesProcessed: 195, VectorsProcessed: 1520, TLSWrites: 195, SharedWrites: 138, MergeOps: 320, FrontierSkips: 4565, InvalidLanes: 1155, LocalAccesses: 195}},
		{"sssp", fullVector, perfmodel.Counters{EdgesProcessed: 4448, VectorsProcessed: 3997, TLSWrites: 4448, SharedWrites: 635, MergeOps: 224, FrontierSkips: 9202, InvalidLanes: 2338, LocalAccesses: 4448}},
		{"bfs", paper, perfmodel.Counters{EdgesProcessed: 451, VectorsProcessed: 2855, TLSWrites: 451, SharedWrites: 138, MergeOps: 320, FrontierSkips: 9299, InvalidLanes: 1670, LocalAccesses: 451}},
		{"cc", paper, perfmodel.Counters{EdgesProcessed: 3817, VectorsProcessed: 2284, TLSWrites: 3817, SharedWrites: 393, MergeOps: 256, FrontierSkips: 3983, InvalidLanes: 1336, LocalAccesses: 3817}},
		{"pr", trad, perfmodel.Counters{EdgesProcessed: 5850, VectorsProcessed: 1713, TLSWrites: 5667, SharedWrites: 183, AtomicOps: 183, MergeOps: 1146, InvalidLanes: 1002, LocalAccesses: 5850}},
		{"cc", trad, perfmodel.Counters{EdgesProcessed: 3817, VectorsProcessed: 2284, TLSWrites: 3707, SharedWrites: 56, AtomicOps: 56, MergeOps: 1528, FrontierSkips: 3983, InvalidLanes: 1336, LocalAccesses: 3817, SkippedWrites: 54}},
		{"bfs", trad, perfmodel.Counters{EdgesProcessed: 451, VectorsProcessed: 2855, TLSWrites: 407, SharedWrites: 28, AtomicOps: 28, MergeOps: 1910, FrontierSkips: 9299, InvalidLanes: 1670, LocalAccesses: 451, SkippedWrites: 16}},
		{"sssp", trad, perfmodel.Counters{EdgesProcessed: 4449, VectorsProcessed: 3997, TLSWrites: 4304, SharedWrites: 101, AtomicOps: 101, MergeOps: 2674, FrontierSkips: 9201, InvalidLanes: 2338, LocalAccesses: 4449, SkippedWrites: 44}},
		{"pr", nonatomic, perfmodel.Counters{EdgesProcessed: 5850, VectorsProcessed: 1713, TLSWrites: 5667, SharedWrites: 183, MergeOps: 1146, InvalidLanes: 1002, LocalAccesses: 5850}},
		{"cc", nonatomic, perfmodel.Counters{EdgesProcessed: 3817, VectorsProcessed: 2284, TLSWrites: 3707, SharedWrites: 56, MergeOps: 1528, FrontierSkips: 3983, InvalidLanes: 1336, LocalAccesses: 3817, SkippedWrites: 54}},
		{"bfs", nonatomic, perfmodel.Counters{EdgesProcessed: 451, VectorsProcessed: 2855, TLSWrites: 407, SharedWrites: 28, MergeOps: 1910, FrontierSkips: 9299, InvalidLanes: 1670, LocalAccesses: 451, SkippedWrites: 16}},
		{"sssp", nonatomic, perfmodel.Counters{EdgesProcessed: 4449, VectorsProcessed: 3997, TLSWrites: 4304, SharedWrites: 101, MergeOps: 2674, FrontierSkips: 9201, InvalidLanes: 2338, LocalAccesses: 4449, SkippedWrites: 44}},
		{"pr", scalar, perfmodel.Counters{EdgesProcessed: 5850, TLSWrites: 5850, SharedWrites: 501, MergeOps: 489, LocalAccesses: 5850}},
		{"cc", scalar, perfmodel.Counters{EdgesProcessed: 3817, TLSWrites: 3817, SharedWrites: 401, MergeOps: 652, FrontierSkips: 3983, LocalAccesses: 3817}},
		{"bfs", scalar, perfmodel.Counters{EdgesProcessed: 451, TLSWrites: 451, SharedWrites: 119, MergeOps: 815, FrontierSkips: 9299, LocalAccesses: 451}},
		{"sssp", scalar, perfmodel.Counters{EdgesProcessed: 4449, TLSWrites: 4449, SharedWrites: 558, MergeOps: 1141, FrontierSkips: 9201, LocalAccesses: 4449}},
	}
	for _, pin := range pinned {
		iters := 1 << 20
		switch pin.app {
		case "pr", "ppr", "wpr", "lp":
			iters = 3
		}
		layout := cg
		if pin.app == "wpr" {
			layout = cgw
		}
		opt := pin.opt
		opt.Record = true
		r := NewRunner(layout, opt)
		res := Run(r, mk[pin.app](), iters)
		r.Close()
		if res.EdgeCounters != pin.want {
			t.Errorf("%s %v %v scalar=%v fullVector=%v paper=%v w%d c%d: Edge counters\n got  %+v\n want %+v", pin.app, opt.Mode,
				opt.Variant, opt.Scalar, opt.AblateFullVector, opt.AblateFrontierWork, opt.Workers, opt.ChunkVectors, res.EdgeCounters, pin.want)
		}
	}
}
