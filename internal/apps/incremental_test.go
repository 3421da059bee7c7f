package apps_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Incremental-seed conformance (DESIGN.md §15): the registry-wide bar for
// the apps that incremental recompute touches. On the T/U/D conformance
// analogs, after a batch of fresh inserts, the run a query gets on the
// mutated graph must reproduce a cold run there and the sequential
// reference: warm-started from the predecessor's lanes for cc, the one app
// with an IncrementalSeed planner, and cold for pr, ppr, bfs and sssp, which
// have none. FuzzIncrementalSeed extends cc's property to arbitrary
// byte-derived deltas: the planner may refuse anything, but whatever it
// accepts must be right.

// incrementalApps is the suite's fixed app list: cc, and the four apps that
// must run cold after a mutation (DESIGN.md §15 says why).
var incrementalApps = []string{"bfs", "cc", "ppr", "pr", "sssp"}

// freshInserts builds up to n inserts of edges absent from g, the batch a
// mutating client sends.
func freshInserts(g *graph.Graph, n int) []graph.EdgeOp {
	have := make(map[[2]uint32]bool, len(g.Edges))
	for _, e := range g.Edges {
		have[[2]uint32{e.Src, e.Dst}] = true
	}
	nv := uint32(g.NumVertices)
	ops := make([]graph.EdgeOp, 0, n)
	for i := uint32(0); len(ops) < n && i < 16*nv; i++ {
		src := (i * 2654435761) % nv
		dst := (src + 1 + i%97) % nv
		if src == dst || have[[2]uint32{src, dst}] {
			continue
		}
		have[[2]uint32{src, dst}] = true
		ops = append(ops, graph.EdgeOp{Src: src, Dst: dst, Weight: 1})
	}
	return ops
}

// runSeeded executes ent on g warm-started from plan and returns the lanes,
// failing the test if the seed does not install.
func runSeeded(t *testing.T, g *graph.Graph, ent apps.Entry, p apps.Params, plan *apps.SeedPlan) []uint64 {
	t.Helper()
	r := core.NewRunner(core.BuildGraph(g), core.Options{Workers: 2, ChunkVectors: 16})
	defer r.Close()
	prog, err := ent.New(r.Graph(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunCtx(context.Background(), r, prog, ent.MaxIters(p), &core.Seed{
		Props:    plan.Props,
		Frontier: plan.Frontier,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seeded {
		t.Fatal("accepted plan failed to install")
	}
	return res.Props
}

// runAfter returns the lanes a query on g1 gets after the batch ops: for cc,
// a run warm-started from its planner's plan; for any other app, which must
// register no planner, a cold run.
func runAfter(t *testing.T, g1 *graph.Graph, ent apps.Entry, p apps.Params, pred []uint64, ops []graph.EdgeOp) []uint64 {
	t.Helper()
	if ent.Name != "cc" {
		if ent.IncrementalSeed != nil {
			t.Fatalf("%s registers an IncrementalSeed planner", ent.Name)
		}
		return runConformance(t, core.BuildGraph(g1), g1, ent, p, 2)
	}
	plan, err := ent.IncrementalSeed(apps.SeedInput{Vertices: g1.NumVertices, Pred: pred, Ops: ops})
	if err != nil {
		t.Fatalf("planner refused a by-construction safe delta: %v", err)
	}
	return runSeeded(t, g1, ent, p, plan)
}

// assertSeedReference compares got against ent's sequential reference
// lanes with the conformance tolerance (exact for integer lanes, 1e-9 for
// float lanes).
func assertSeedReference(t *testing.T, ent apps.Entry, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("lane count = %d, reference %d", len(got), len(want))
	}
	for v := range want {
		if ent.FloatLanes {
			a, b := math.Float64frombits(got[v]), math.Float64frombits(want[v])
			if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) {
				continue
			}
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
				t.Fatalf("lane[%d] = %v, reference %v", v, a, b)
			}
		} else if got[v] != want[v] {
			t.Fatalf("lane[%d] = %#x, reference %#x", v, got[v], want[v])
		}
	}
}

func TestRegistryConformanceIncremental(t *testing.T) {
	graphs := conformanceGraphs()
	for _, name := range incrementalApps {
		ent, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for gname, base := range graphs {
				t.Run(gname, func(t *testing.T) {
					g0 := base
					if ent.NeedsWeights {
						g0 = gen.AddUniformWeights(g0, 42)
					}
					p := conformanceParams(ent)
					pred := runConformance(t, core.BuildGraph(g0), g0, ent, p, 1)
					ops := freshInserts(g0, 16)
					if len(ops) == 0 {
						t.Fatal("no batch constructible")
					}
					g1 := graph.ApplyEdgeOps(g0, ops)
					got := runAfter(t, g1, ent, p, pred, ops)
					assertSeedReference(t, ent, runConformance(t, core.BuildGraph(g1), g1, ent, p, 1), got)
					assertSeedReference(t, ent, ent.Reference(g1, p), got)
				})
			}
		})
	}
}

// Fuzz state: one small base graph and cc's lanes on it, computed once —
// fuzz iterations only pay for the delta.
var (
	fuzzSeedOnce sync.Once
	fuzzSeedBase *graph.Graph
	fuzzSeedCC   apps.Entry
	fuzzSeedPred []uint64
)

func fuzzSeedSetup() {
	fuzzSeedBase = gen.Generate(gen.Twitter, 0.02)
	var err error
	if fuzzSeedCC, err = apps.Lookup("cc"); err != nil {
		panic(err)
	}
	p := conformanceParams(fuzzSeedCC)
	r := core.NewRunner(core.BuildGraph(fuzzSeedBase), core.Options{Workers: 2, ChunkVectors: 16})
	prog, err := fuzzSeedCC.New(r.Graph(), p)
	if err != nil {
		panic(err)
	}
	fuzzSeedPred = core.Run(r, prog, fuzzSeedCC.MaxIters(p)).Props
	r.Close()
}

// FuzzIncrementalSeed derives an arbitrary mutation batch from fuzz bytes
// and checks the one property cc's planner must uphold: refusing is always
// allowed, but an accepted plan's seeded run must reproduce the sequential
// reference on the mutated graph. Each op is six bytes: a kind byte (bit 0
// delete; bit 1 re-assert the base edge the next two bytes index, a no-op
// for the topology that arbitrary ids almost never hit), source,
// destination and weight.
func FuzzIncrementalSeed(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 8, 0, 0, 2, 0, 3, 4})
	f.Add([]byte{1, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 0, 9, 0, 1, 2, 1, 0, 9, 0, 1, 0, 0, 0, 9, 0, 1, 6})
	f.Add([]byte{0, 255, 255, 255, 254, 1})
	f.Add([]byte{0, 0, 5, 0, 6, 31, 0, 0, 6, 0, 5, 31})
	// Batches the planner accepts: re-assertions, fresh inserts, an edge to
	// a new vertex.
	f.Add([]byte{2, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 9, 0, 1, 4})
	f.Add([]byte{2, 0, 5, 0, 0, 0, 2, 1, 7, 0, 0, 0})
	f.Add([]byte{2, 0, 7, 0, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzSeedOnce.Do(fuzzSeedSetup)
		ent, g0 := fuzzSeedCC, fuzzSeedBase
		p := conformanceParams(ent)
		nv := uint32(g0.NumVertices)
		var ops []graph.EdgeOp
		for i := 0; i+6 <= len(data) && len(ops) < 64; i += 6 {
			b := data[i : i+6]
			op := graph.EdgeOp{
				Delete: b[0]&1 == 1,
				Src:    (uint32(b[1])<<8 | uint32(b[2])) % (nv + 2),
				Dst:    (uint32(b[3])<<8 | uint32(b[4])) % (nv + 2),
				Weight: float32(b[5]%32) / 4,
			}
			if b[0]&2 != 0 {
				e := g0.Edges[(int(b[1])<<8|int(b[2]))%len(g0.Edges)]
				op = graph.EdgeOp{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
			}
			if op.Src == op.Dst {
				continue
			}
			ops = append(ops, op)
		}
		if len(ops) == 0 {
			return
		}
		g1 := graph.ApplyEdgeOps(g0, ops)
		plan, err := ent.IncrementalSeed(apps.SeedInput{Vertices: g1.NumVertices, Pred: fuzzSeedPred, Ops: ops})
		if err != nil {
			return // fallback to full recompute: always safe
		}
		got := runSeeded(t, g1, ent, p, plan)
		assertSeedReference(t, ent, ent.Reference(g1, p), got)
	})
}
