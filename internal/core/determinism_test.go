package core

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Determinism regression suite: the engine's contract is that a run's
// output is a pure function of the graph and the chunk structure — never of
// worker count or timing (the merge buffer is folded in chunk order on one
// thread after the barrier). Each app's 1-worker run is the reference; 2-
// and 4-worker runs, traced and untraced, must be bit-identical to it.
//
// Two framing choices keep the suite honest:
//   - ChunkVectors is pinned, because the DEFAULT chunk size derives from
//     the worker count — identical output across worker counts is only
//     promised for an identical chunk layout (order-sensitive float
//     addition folds per chunk).
//   - The reference is a same-process run, not a stored hash, so the suite
//     stays valid on hardware with different float rounding (FMA
//     contraction differs across builds).

// detApps returns fresh program instances — programs carry per-run state,
// so each run needs its own.
var detApps = []struct {
	name string
	make func(g *graph.Graph) apps.Program
}{
	{"pagerank", func(g *graph.Graph) apps.Program { return apps.NewPageRank(g) }},
	{"components", func(g *graph.Graph) apps.Program { return apps.NewConnComp() }},
	{"bfs", func(g *graph.Graph) apps.Program { return apps.NewBFS(3) }},
}

func TestDeterminismAcrossWorkers(t *testing.T) {
	g := gen.RMAT(11, 20000, gen.DefaultRMAT, 97)
	cg := BuildGraph(g)

	for _, app := range detApps {
		t.Run(app.name, func(t *testing.T) {
			ref := runDet(t, cg, g, app.make, Options{Workers: 1})
			for _, workers := range []int{1, 2, 4} {
				for _, trace := range []bool{false, true} {
					name := fmt.Sprintf("w%d_trace=%v", workers, trace)
					t.Run(name, func(t *testing.T) {
						got := runDet(t, cg, g, app.make, Options{Workers: workers, Trace: trace})
						diffProps(t, ref, got)
					})
				}
			}
		})
	}
}

// TestDeterminismSparseAndStealing extends the suite to the paper
// configuration (no list-driven round, no early exit), which must also
// reproduce the shipped 1-worker output exactly.
func TestDeterminismSparseAndStealing(t *testing.T) {
	g := gen.RMAT(11, 20000, gen.DefaultRMAT, 98)
	cg := BuildGraph(g)

	for _, app := range detApps {
		t.Run(app.name, func(t *testing.T) {
			ref := runDet(t, cg, g, app.make, Options{Workers: 1})
			t.Run("paper_w4", func(t *testing.T) {
				got := runDet(t, cg, g, app.make, Options{Workers: 4, AblateFrontierWork: true, Trace: true})
				diffProps(t, ref, got)
			})
		})
	}
}

func runDet(t *testing.T, cg *Graph, g *graph.Graph, mk func(*graph.Graph) apps.Program, opt Options) []uint64 {
	t.Helper()
	opt.ChunkVectors = 8
	r := NewRunner(cg, opt)
	defer r.Close()
	res := Run(r, mk(g), 20)
	return res.Props
}

func diffProps(t *testing.T, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("prop length %d, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("prop[%d] = %#x, want %#x (first divergence)", v, got[v], want[v])
		}
	}
}
