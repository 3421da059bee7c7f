package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Metamorphic equivalence suite for incremental recompute (DESIGN.md §15):
// after a batch of fresh inserts — the batch a mutating client sends — the
// run a query gets on the mutated graph must equal a cold run there and the
// sequential reference, at every worker count. For cc, the one app with a
// planner, that run is warm-started from the predecessor's lanes (exact
// against the cold run); pr, ppr, bfs and sssp have no planner, so theirs is
// a cold run. The deletion test covers cc's refused path, and the fault tests
// cover a seed that breaks mid-install. The equivalence matrix's seeded
// start (TestEquivalenceMatrixIncremental) runs the same batches and also
// joins each seeded run to the path table.

// incrementalApps are the apps the incremental suites sweep: cc, and the four
// that must run cold after a mutation (DESIGN.md §15 says why).
var incrementalApps = []string{"pr", "ppr", "cc", "bfs", "sssp"}

// plannedApp is the one app that registers an IncrementalSeed planner.
const plannedApp = "cc"

// incrementalBatches are the delta sizes the acceptance suite and the
// matrix's seeded start sweep.
var incrementalBatches = []int{1, 16, 256}

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

// seedAfter is the warm start a query on g1 gets after the batch ops: cc's
// plan, or nil — a cold run — for an app without a planner. It fails t when
// an app other than cc registers a planner, or cc's planner refuses ops.
func seedAfter(t *testing.T, ent apps.Entry, g1 *graph.Graph, pred []uint64, ops []graph.EdgeOp) *Seed {
	t.Helper()
	if ent.Name != plannedApp {
		if ent.IncrementalSeed != nil {
			t.Fatalf("%s registers an IncrementalSeed planner", ent.Name)
		}
		return nil
	}
	plan, err := ent.IncrementalSeed(apps.SeedInput{Vertices: g1.NumVertices, Pred: pred, Ops: ops})
	if err != nil {
		t.Fatalf("batch of %d: planner refused a by-construction safe delta: %v", len(ops), err)
	}
	return &Seed{Props: plan.Props, Frontier: plan.Frontier}
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

// runIncrSeeded runs ent on cg for at most maxIters iterations from seed.
func runIncrSeeded(t *testing.T, cg *Graph, ent apps.Entry, p apps.Params, maxIters int, seed *Seed, workers int) Result {
	t.Helper()
	r := NewRunner(cg, Options{Workers: workers, ChunkVectors: 16})
	defer r.Close()
	prog, err := ent.New(cg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), r, prog, maxIters, seed)
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
					g0 := base
					if ent.NeedsWeights {
						g0 = gen.AddUniformWeights(base, 42)
					}
					p := ent.Normalize(apps.Params{Iters: 4, Root: 1, K: 3})
					pred := runIncrCold(t, BuildGraph(g0), g0, ent, p, 1)
					for _, n := range incrementalBatches {
						ops := freshInserts(g0, n)
						if len(ops) == 0 {
							t.Fatalf("no batch of size %d constructible", n)
						}
						g1 := graph.ApplyEdgeOps(g0, ops)
						seed := seedAfter(t, ent, g1, pred, ops)
						cg1 := BuildGraph(g1)
						cold := runIncrCold(t, cg1, g1, ent, p, 1)
						assertIncrLanesEqual(t, ent, ent.Reference(g1, p), cold)
						for _, workers := range []int{1, 2, 4} {
							res := runIncrSeeded(t, cg1, ent, p, ent.MaxIters(p), seed, workers)
							if res.Seeded != (seed != nil) {
								t.Fatalf("batch %d workers %d: Seeded = %t, want %t", n, workers, res.Seeded, seed != nil)
							}
							assertIncrLanesEqual(t, ent, cold, res.Props)
						}
					}
				})
			}
		})
	}
}

// TestIncrementalDeletionFallback: cc's planner must refuse a delta that
// removes an edge, the other apps have no planner to ask, and the run every
// app then gets — a cold run on the mutated graph — must agree with the
// sequential reference, so refusing is always safe.
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
			e := g0.Edges[0]
			ops := []graph.EdgeOp{{Delete: true, Src: e.Src, Dst: e.Dst}}
			g1 := graph.ApplyEdgeOps(g0, ops)
			if name != plannedApp {
				if ent.IncrementalSeed != nil {
					t.Fatalf("%s registers an IncrementalSeed planner", name)
				}
			} else if _, err := ent.IncrementalSeed(apps.SeedInput{Vertices: g1.NumVertices, Pred: pred, Ops: ops}); !errors.Is(err, apps.ErrSeedDeletes) {
				t.Fatalf("planner on a deletion delta: %v, want ErrSeedDeletes", err)
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
	ent, err := apps.Lookup(plannedApp)
	if err != nil {
		t.Fatal(err)
	}
	p := ent.Normalize(apps.Params{})
	pred := runIncrCold(t, BuildGraph(base), base, ent, p, 4)
	ops := freshInserts(base, 16)
	g1 := graph.ApplyEdgeOps(base, ops)
	seed := seedAfter(t, ent, g1, pred, ops)
	cg1 := BuildGraph(g1)
	cold := runIncrCold(t, cg1, g1, ent, p, 4)
	for _, mode := range []string{"panic*1", "error*1"} {
		t.Run(mode, func(t *testing.T) {
			disarm, err := fault.Enable("core/incremental-seed", mode)
			if err != nil {
				t.Fatal(err)
			}
			defer disarm()
			res := runIncrSeeded(t, cg1, ent, p, ent.MaxIters(p), seed, 4)
			if res.Seeded {
				t.Fatalf("Seeded = true under %s", mode)
			}
			assertIncrLanesEqual(t, ent, cold, res.Props)
		})
	}
}

// TestIncrementalSeedFaultDirectPlan: a run given a zero-iteration budget
// returns whatever lanes it started from, so when its seed fails to install
// Result.Seeded must be false — the caller's only sign that the lanes are
// cold-init state, not the seed.
func TestIncrementalSeedFaultDirectPlan(t *testing.T) {
	base := gen.Generate(gen.Twitter, 0.05)
	ent, err := apps.Lookup(plannedApp)
	if err != nil {
		t.Fatal(err)
	}
	p := ent.Normalize(apps.Params{})
	pred := runIncrCold(t, BuildGraph(base), base, ent, p, 2)
	ops := freshInserts(base, 8)
	g1 := graph.ApplyEdgeOps(base, ops)
	seed := seedAfter(t, ent, g1, pred, ops)
	cg1 := BuildGraph(g1)
	if res := runIncrSeeded(t, cg1, ent, p, 0, seed, 2); !res.Seeded || !slices.Equal(res.Props, seed.Props) {
		t.Fatalf("zero-iteration seeded run: Seeded = %t, lanes are the seed's: %t", res.Seeded, slices.Equal(res.Props, seed.Props))
	}
	disarm, err := fault.Enable("core/incremental-seed", "panic*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if res := runIncrSeeded(t, cg1, ent, p, 0, seed, 2); res.Seeded {
		t.Fatal("Seeded = true under an injected seed panic")
	}
}
