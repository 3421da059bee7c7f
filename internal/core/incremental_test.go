package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Metamorphic equivalence suite for incremental recompute (DESIGN.md §15):
// for every seed-capable app, applying a mutation batch and warm-starting
// from the predecessor's lanes must produce the same result as a cold run
// on the mutated graph — exact for integer lanes, within float
// reassociation tolerance for float lanes — at every worker count. Batches are shaped per app to land on the intended accepted path
// (see the builders below); the deletion test covers the refused path, and
// the fault tests cover a seed that breaks mid-install. The equivalence
// matrix's seeded start (TestEquivalenceMatrixIncremental) runs the same
// batches and also joins each seeded run to the path table.

// incrementalApps are the registry entries with an IncrementalSeed planner.
var incrementalApps = []string{"pr", "ppr", "cc", "bfs", "sssp"}

// incrementalBatches are the delta sizes the acceptance suite and the
// matrix's seeded start sweep.
var incrementalBatches = []int{1, 16, 256}

// uniquePairReasserts builds up to n upserts that each re-assert an
// existing edge whose (src, dst) pair is unique in g. Under last-writer-
// wins apply the batch is a topology no-op, which is exactly what the
// pr/ppr direct plan detects (equal edge count, no surviving deletes).
// Duplicated base pairs would collapse under apply and change the count,
// sending the planner — correctly — to fallback, so they are excluded.
func uniquePairReasserts(g *graph.Graph, n int) []graph.EdgeOp {
	count := make(map[[2]uint32]int, len(g.Edges))
	for _, e := range g.Edges {
		count[[2]uint32{e.Src, e.Dst}]++
	}
	ops := make([]graph.EdgeOp, 0, n)
	for _, e := range g.Edges {
		if count[[2]uint32{e.Src, e.Dst}] == 1 {
			ops = append(ops, graph.EdgeOp{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
			if len(ops) == n {
				break
			}
		}
	}
	return ops
}

// anyReasserts re-asserts the first n edges of g verbatim, duplicated base
// pairs included. Safe for bfs: a min-parent BFS result has
// depth[v] <= depth[u]+1 for every existing edge (u, v) with u reached,
// and pred[v] <= u when the levels are equal, so no re-assertion can move
// a tree edge.
func anyReasserts(g *graph.Graph, n int) []graph.EdgeOp {
	if n > len(g.Edges) {
		n = len(g.Edges)
	}
	ops := make([]graph.EdgeOp, 0, n)
	for _, e := range g.Edges[:n] {
		ops = append(ops, graph.EdgeOp{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
	}
	return ops
}

// freshInserts builds up to n inserts of edges absent from g — the
// genuinely-new-edge batch cc's warm frontier-seeded plan propagates from.
// When the batch is large enough it also grows the vertex space by one
// (exercising lane extension) and ends with a within-batch duplicate pair
// (exercising last-writer-wins resolution in the planner).
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
	if len(ops) >= 4 {
		ops[1] = graph.EdgeOp{Src: ops[0].Src, Dst: nv, Weight: 1} // new vertex
		ops[len(ops)-1] = ops[2]                                   // LWW duplicate
	}
	return ops
}

// improvingInserts builds up to n sssp-safe upserts: each new weight w on
// (u, v) satisfies dist[u] + w < dist[v] (u reached), so the batch can
// only lower distances and the planner's no-raise rule accepts it. For a
// finite dist[v] the midpoint weight w = (dist[v]-dist[u])/2 improves the
// path; for an unreached v any finite weight does.
func improvingInserts(g *graph.Graph, pred []uint64, n int) []graph.EdgeOp {
	seen := make(map[[2]uint32]bool, n)
	nv := uint32(g.NumVertices)
	ops := make([]graph.EdgeOp, 0, n)
	for i := uint32(0); len(ops) < n && i < 64*nv; i++ {
		src := (i * 2654435761) % nv
		dst := (src + 1 + i%97) % nv
		if src == dst || seen[[2]uint32{src, dst}] {
			continue
		}
		du := math.Float64frombits(pred[src])
		dv := math.Float64frombits(pred[dst])
		if math.IsInf(du, 1) {
			continue
		}
		w := float32(1)
		if !math.IsInf(dv, 1) {
			if dv <= du {
				continue
			}
			w = float32(0.5 * (dv - du))
			if w <= 0 {
				continue
			}
		}
		seen[[2]uint32{src, dst}] = true
		ops = append(ops, graph.EdgeOp{Src: src, Dst: dst, Weight: w})
	}
	return ops
}

// incrementalBatch shapes a planner-accepted delta for the named app.
func incrementalBatch(name string, g *graph.Graph, pred []uint64, n int) []graph.EdgeOp {
	switch name {
	case "pr", "ppr":
		return uniquePairReasserts(g, n)
	case "bfs":
		return anyReasserts(g, n)
	case "cc":
		return freshInserts(g, n)
	case "sssp":
		return improvingInserts(g, pred, n)
	}
	return nil
}

// runIncrCold runs ent cold on g at the given worker count with ChunkVectors
// pinned (the determinism contract makes the result identical across worker
// counts, so one cold run is ground truth for the whole matrix).
func runIncrCold(t *testing.T, cg *Graph, g *graph.Graph, ent apps.Entry, p apps.Params, workers int) []uint64 {
	t.Helper()
	r := NewRunner(cg, Options{Workers: workers, ChunkVectors: 16})
	defer r.Close()
	prog, err := ent.New(cg, p)
	if err != nil {
		t.Fatal(err)
	}
	return Run(r, prog, ent.MaxIters(p)).Props
}

// runIncrSeeded runs ent on g warm-started from plan.
func runIncrSeeded(t *testing.T, cg *Graph, g *graph.Graph, ent apps.Entry, p apps.Params, plan *apps.SeedPlan, workers int) Result {
	t.Helper()
	r := NewRunner(cg, Options{Workers: workers, ChunkVectors: 16})
	defer r.Close()
	prog, err := ent.New(cg, p)
	if err != nil {
		t.Fatal(err)
	}
	max := ent.MaxIters(p)
	if plan.Direct {
		max = 0
	}
	res, err := RunCtx(context.Background(), r, prog, max, &Seed{
		Props:    plan.Props,
		Frontier: plan.Frontier,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertIncrLanesEqual compares got against want: bit-exact for integer
// lanes, 1e-9 relative for float lanes (a seeded run may accumulate edge
// contributions in a different order than a cold run).
func assertIncrLanesEqual(t *testing.T, ent apps.Entry, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("lane count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] == got[i] {
			continue
		}
		if !ent.FloatLanes {
			t.Fatalf("lane %d = %#x, want %#x", i, got[i], want[i])
		}
		a := math.Float64frombits(want[i])
		b := math.Float64frombits(got[i])
		if a == b {
			continue
		}
		denom := math.Max(math.Abs(a), math.Abs(b))
		if math.Abs(a-b) > 1e-9*denom {
			t.Fatalf("lane %d = %g, want %g (rel err %g)", i, b, a, math.Abs(a-b)/denom)
		}
	}
}

func TestIncrementalMetamorphicEquivalence(t *testing.T) {
	datasets := []gen.Dataset{gen.Twitter, gen.UK2007, gen.DimacsUSA}
	for _, d := range datasets {
		base := gen.Generate(d, 0.05)
		abbrev := string(d.Abbrev())
		t.Run(abbrev, func(t *testing.T) {
			for _, name := range incrementalApps {
				name := name
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					ent, err := apps.Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					if ent.IncrementalSeed == nil {
						t.Fatalf("%s has no IncrementalSeed planner", name)
					}
					g0 := base
					if ent.NeedsWeights {
						g0 = gen.AddUniformWeights(base, 42)
					}
					p := ent.Normalize(apps.Params{Iters: 4, Root: 1, K: 3})
					pred := runIncrCold(t, BuildGraph(g0), g0, ent, p, 1)
					for _, n := range incrementalBatches {
						ops := incrementalBatch(name, g0, pred, n)
						if len(ops) == 0 {
							t.Fatalf("no batch of size %d constructible", n)
						}
						g1 := graph.ApplyEdgeOps(g0, ops)
						plan, err := ent.IncrementalSeed(apps.SeedInput{
							Vertices: g1.NumVertices, Edges: g1.NumEdges(),
							Params:          p,
							Pred:            pred,
							Ops:             ops,
							FromEdges:       g0.NumEdges(),
							FromCountsKnown: true,
						})
						if err != nil {
							t.Fatalf("batch %d: planner refused a by-construction safe delta: %v", n, err)
						}
						cg1 := BuildGraph(g1)
						cold := runIncrCold(t, cg1, g1, ent, p, 1)
						for _, workers := range []int{1, 2, 4} {
							res := runIncrSeeded(t, cg1, g1, ent, p, plan, workers)
							if !res.Seeded {
								t.Fatalf("batch %d workers %d: seed did not apply", n, workers)
							}
							assertIncrLanesEqual(t, ent, cold, res.Props)
						}
					}
				})
			}
		})
	}
}

// TestIncrementalDeletionFallback: deltas that remove result-bearing edges
// must be refused by every planner, and the fallback — a cold run on the
// mutated graph — must agree with the sequential reference, so refusing is
// always safe.
func TestIncrementalDeletionFallback(t *testing.T) {
	base := gen.Generate(gen.Twitter, 0.05)
	for _, name := range incrementalApps {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ent, err := apps.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			g0 := base
			if ent.NeedsWeights {
				g0 = gen.AddUniformWeights(base, 42)
			}
			p := ent.Normalize(apps.Params{Iters: 4, Root: 1, K: 3})
			pred := runIncrCold(t, BuildGraph(g0), g0, ent, p, 1)

			var ops []graph.EdgeOp
			if name == "bfs" {
				// Deleting a tree edge (pred[v] = u) is the case bfs cannot
				// absorb: v may need a deeper parent, and depths only shrink
				// under seeded iteration.
				for v, pv := range pred {
					if uint32(v) != p.Root && pv != apps.NoParent {
						ops = []graph.EdgeOp{{Delete: true, Src: uint32(pv), Dst: uint32(v)}}
						break
					}
				}
			} else {
				e := g0.Edges[0]
				ops = []graph.EdgeOp{{Delete: true, Src: e.Src, Dst: e.Dst}}
			}
			if len(ops) == 0 {
				t.Fatal("no deletable edge found")
			}
			g1 := graph.ApplyEdgeOps(g0, ops)
			if _, err := ent.IncrementalSeed(apps.SeedInput{
				Vertices: g1.NumVertices, Edges: g1.NumEdges(),
				Params:          p,
				Pred:            pred,
				Ops:             ops,
				FromEdges:       g0.NumEdges(),
				FromCountsKnown: true,
			}); err == nil {
				t.Fatal("planner accepted a deletion delta")
			}
			cold := runIncrCold(t, BuildGraph(g1), g1, ent, p, 1)
			assertIncrLanesEqual(t, ent, ent.Reference(g1, p), cold)
		})
	}
}

// TestIncrementalSeedFaultDegradesToCold: a panic or error injected while
// the seed installs (the core/incremental-seed failpoint) must degrade the
// run to a bit-exact cold start — Seeded false, no error surfaced, lanes
// identical to an unseeded run.
func TestIncrementalSeedFaultDegradesToCold(t *testing.T) {
	base := gen.Generate(gen.Twitter, 0.05)
	ent, err := apps.Lookup("cc")
	if err != nil {
		t.Fatal(err)
	}
	p := ent.Normalize(apps.Params{})
	pred := runIncrCold(t, BuildGraph(base), base, ent, p, 4)
	ops := freshInserts(base, 16)
	g1 := graph.ApplyEdgeOps(base, ops)
	plan, err := ent.IncrementalSeed(apps.SeedInput{
		Vertices: g1.NumVertices, Edges: g1.NumEdges(), Params: p, Pred: pred, Ops: ops,
		FromEdges: base.NumEdges(), FromCountsKnown: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cg1 := BuildGraph(g1)
	cold := runIncrCold(t, cg1, g1, ent, p, 4)
	for _, mode := range []string{"panic*1", "error*1"} {
		t.Run(mode, func(t *testing.T) {
			disarm, err := fault.Enable("core/incremental-seed", mode)
			if err != nil {
				t.Fatal(err)
			}
			defer disarm()
			res := runIncrSeeded(t, cg1, g1, ent, p, plan, 4)
			if res.Seeded {
				t.Fatalf("Seeded = true under %s", mode)
			}
			assertIncrLanesEqual(t, ent, cold, res.Props)
		})
	}
}

// TestIncrementalSeedFaultDirectPlan: when a direct (zero-iteration) plan's
// seed fails to install, Result.Seeded must be false so the caller knows
// the lanes are cold-init state, not the result, and re-runs in full — the
// contract Engine.RunIncremental relies on.
func TestIncrementalSeedFaultDirectPlan(t *testing.T) {
	base := gen.Generate(gen.Twitter, 0.05)
	ent, err := apps.Lookup("pr")
	if err != nil {
		t.Fatal(err)
	}
	p := ent.Normalize(apps.Params{Iters: 4})
	pred := runIncrCold(t, BuildGraph(base), base, ent, p, 2)
	ops := uniquePairReasserts(base, 8)
	g1 := graph.ApplyEdgeOps(base, ops)
	plan, err := ent.IncrementalSeed(apps.SeedInput{
		Vertices: g1.NumVertices, Edges: g1.NumEdges(), Params: p, Pred: pred, Ops: ops,
		FromEdges: base.NumEdges(), FromCountsKnown: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Direct {
		t.Fatal("re-assertion batch did not produce a direct plan")
	}
	disarm, err := fault.Enable("core/incremental-seed", "panic*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	res := runIncrSeeded(t, BuildGraph(g1), g1, ent, p, plan, 2)
	if res.Seeded {
		t.Fatal("Seeded = true under an injected seed panic")
	}
}
