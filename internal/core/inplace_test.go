package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
)

// inPlaceGraphs is the shared corpus plus the conformance suite's T/U/D
// analogs, every one weighted so that sssp runs on all of them.
func inPlaceGraphs() []testgraph.Graph {
	out := testgraph.Corpus()
	for _, d := range []gen.Dataset{gen.Twitter, gen.UK2007, gen.DimacsUSA} {
		out = append(out, testgraph.Graph{Name: d.Abbrev() + "-analog", Root: 1, G: gen.Generate(d, 0.05)})
	}
	return out
}

// inPlaceApps is the subset of frontierWorkApps that declares the
// monotone-min trait (cc and sssp), each with its sequential reference.
func inPlaceApps(g *graph.Graph, root uint32) []frontierWorkApp {
	var out []frontierWorkApp
	for _, app := range frontierWorkApps(g, root) {
		if apps.IsMonotoneMin(app.mk()) {
			out = append(out, app)
		}
	}
	return out
}

// TestInPlaceEquivalence: for the two programs that carry the monotone-min
// trait, on every corpus graph and analog, the shipped run — synchronous for
// its first inPlaceAfter pulls, in place after — ends at the bits of the
// paper configuration and of the sequential reference at every worker,
// grid, mode and kernel (the selected one and the Go twin) combination, and
// takes the same number of iterations at every worker count of a given grid
// on either kernel: what an in-place round
// reads is a function of the graph and the chunk grid alone. Pull-only is
// where sssp takes the path at all (a hybrid sssp from one root is
// list-driven on these graphs). The Record counters of in-place rounds are
// held by the equivalence matrix's record cell (checkCounters).
func TestInPlaceEquivalence(t *testing.T) {
	fewer := map[string]bool{}
	for _, c := range inPlaceGraphs() {
		g := c.WithWeights()
		cg := BuildGraph(g)
		for _, app := range inPlaceApps(g, c.Root) {
			t.Run(c.Name+"/"+app.name, func(t *testing.T) {
				for _, mode := range []EngineMode{EngineHybrid, EnginePullOnly} {
					for _, chunk := range []int{0, 16} {
						paper := NewRunner(cg, Options{Workers: 1, ChunkVectors: chunk, Mode: mode, AblateFrontierWork: true})
						ref := Run(paper, app.mk(), 1<<20)
						paper.Close()
						if !slices.Equal(ref.Props, app.want) {
							t.Fatalf("%v chunk%d: paper configuration disagrees with the sequential reference", mode, chunk)
						}
						iters := -1
						for _, workers := range []int{1, 2, 4} {
							for _, goTwin := range []bool{false, true} {
								r := NewRunner(cg, Options{Workers: workers, ChunkVectors: chunk, Mode: mode, AblateSIMD: goTwin})
								res := Run(r, app.mk(), 1<<20)
								r.Close()
								label := fmt.Sprintf("%v chunk%d w%d gotwin=%v", mode, chunk, workers, goTwin)
								if !slices.Equal(res.Props, app.want) {
									t.Fatalf("%s: lanes differ from the reference", label)
								}
								if iters < 0 {
									iters = res.Iterations
								}
								if res.Iterations != iters {
									t.Fatalf("%s: %d iterations, w1 took %d", label, res.Iterations, iters)
								}
							}
						}
						if iters > ref.Iterations {
							t.Errorf("%v chunk%d: %d iterations, paper configuration %d", mode, chunk, iters, ref.Iterations)
						}
						if iters < ref.Iterations {
							fewer[app.name] = true
						}
						// The road-mesh analog is the case this is for: a
						// label crosses one span per in-place round.
						if c.Name == "D-analog" && app.name == "cc" && chunk == 0 {
							if bound := inPlaceAfter + inPlaceSpans + 2; iters > bound {
								t.Errorf("%v: mesh cc took %d iterations, want at most %d (paper configuration: %d)",
									mode, iters, bound, ref.Iterations)
							}
						}
					}
				}
			})
		}
	}
	for _, name := range []string{"cc", "sssp"} {
		if !fewer[name] {
			t.Errorf("%s never finished in fewer iterations than the paper configuration: the in-place path did not run", name)
		}
	}
}
