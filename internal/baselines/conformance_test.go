package baselines

import (
	"errors"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/baselines/graphmat"
	"repro/internal/baselines/ligra"
	"repro/internal/baselines/xstream"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
)

type graphCase struct {
	name string
	g    *graph.Graph
}

func conformanceGraphs() []graphCase {
	return []graphCase{
		{"rmat", gen.RMAT(8, 1500, gen.DefaultRMAT, 1)},
		{"mesh", gen.Grid(10, 11, false, 2)},
	}
}

// frameworksUnder builds every framework at the given worker count.
func frameworksUnder(t *testing.T, g *graph.Graph, workers int) []Framework {
	t.Helper()
	gm, err := NewGraphMat(g, workers)
	if err != nil {
		t.Fatal(err)
	}
	return []Framework{
		NewLigra(g, workers),
		NewLigraDense(g, workers),
		ligra.New(g, ligra.Config{Workers: workers, Mode: ligra.ForcePush}),
		NewPolymer(g, numa.Topology{Nodes: 1, WorkersPerNode: workers}),
		NewPolymer(g, numa.Topology{Nodes: 2, WorkersPerNode: (workers + 1) / 2}),
		gm,
		NewXStream(g, workers),
	}
}

func TestAllFrameworksPageRank(t *testing.T) {
	const iters = 10
	for _, gc := range conformanceGraphs() {
		want := apps.Ranks(apps.RunSequential(apps.NewPageRank(gc.g), gc.g, iters).Props)
		for _, fw := range frameworksUnder(t, gc.g, 4) {
			t.Run(gc.name+"/"+fw.Name(), func(t *testing.T) {
				defer fw.Close()
				res := fw.Run(apps.NewPageRank(gc.g), iters)
				if res.Iterations != iters {
					t.Fatalf("ran %d iterations, want %d", res.Iterations, iters)
				}
				got := apps.Ranks(res.Props)
				for v := range want {
					if math.Abs(got[v]-want[v]) > 1e-10*(1+want[v]) {
						t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
					}
				}
			})
		}
	}
}

func TestAllFrameworksConnectedComponents(t *testing.T) {
	for _, gc := range conformanceGraphs() {
		want := apps.ReferenceComponents(gc.g)
		for _, fw := range frameworksUnder(t, gc.g, 4) {
			t.Run(gc.name+"/"+fw.Name(), func(t *testing.T) {
				defer fw.Close()
				got := apps.Components(fw.Run(apps.NewConnComp(), 1<<20).Props)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("component[%d] = %d, want %d", v, got[v], want[v])
					}
				}
			})
		}
	}
}

func TestAllFrameworksBFS(t *testing.T) {
	for _, gc := range conformanceGraphs() {
		want := apps.ReferenceBFS(gc.g, 0)
		for _, fw := range frameworksUnder(t, gc.g, 4) {
			t.Run(gc.name+"/"+fw.Name(), func(t *testing.T) {
				defer fw.Close()
				got := fw.Run(apps.NewBFS(0), 1<<20)
				for v := range want {
					if got.Props[v] != want[v] {
						t.Fatalf("parent[%d] = %d, want %d", v, got.Props[v], want[v])
					}
				}
			})
		}
	}
}

func TestAllFrameworksSSSP(t *testing.T) {
	g := gen.AddUniformWeights(gen.RMAT(8, 1500, gen.DefaultRMAT, 3), 4)
	want := apps.ReferenceSSSP(g, 0)
	for _, fw := range frameworksUnder(t, g, 2) {
		t.Run(fw.Name(), func(t *testing.T) {
			defer fw.Close()
			got := apps.Distances(fw.Run(apps.NewSSSP(0), 1<<20).Props)
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

// TestLigraLoopConfigs verifies every Fig 1 configuration computes correct
// results (their difference is performance, not semantics — except NoSync,
// which is exact only single-threaded).
func TestLigraLoopConfigs(t *testing.T) {
	g := gen.RMAT(8, 1200, gen.DefaultRMAT, 5)
	wantPR := apps.Ranks(apps.RunSequential(apps.NewPageRank(g), g, 8).Props)
	wantBFS := apps.ReferenceBFS(g, 0)
	configs := []ligra.LoopConfig{ligra.PushS, ligra.PushP, ligra.PushPPullS, ligra.PushPPullP}
	for _, lc := range configs {
		t.Run(lc.String(), func(t *testing.T) {
			fw := NewLigraLoops(g, 4, lc)
			defer fw.Close()
			got := apps.Ranks(fw.Run(apps.NewPageRank(g), 8).Props)
			for v := range wantPR {
				if math.Abs(got[v]-wantPR[v]) > 1e-10*(1+wantPR[v]) {
					t.Fatalf("rank[%d] = %v, want %v", v, got[v], wantPR[v])
				}
			}
			bfs := fw.Run(apps.NewBFS(0), 1<<20)
			for v := range wantBFS {
				if bfs.Props[v] != wantBFS[v] {
					t.Fatalf("parent[%d] = %d, want %d", v, bfs.Props[v], wantBFS[v])
				}
			}
		})
	}
	// NoSync with one worker must be exact.
	fw := NewLigraLoops(g, 1, ligra.PushPPullPNoSync)
	defer fw.Close()
	got := apps.Ranks(fw.Run(apps.NewPageRank(g), 8).Props)
	for v := range wantPR {
		if math.Abs(got[v]-wantPR[v]) > 1e-10*(1+wantPR[v]) {
			t.Fatalf("NoSync/1 worker: rank[%d] = %v, want %v", v, got[v], wantPR[v])
		}
	}
}

func TestLigraUsesSparseEngine(t *testing.T) {
	// A long path keeps the frontier tiny: Ligra must serve BFS from the
	// sparse (push) engine.
	b := graph.NewBuilder(512)
	for v := uint32(0); v < 511; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.MustBuild()
	fw := NewLigra(g, 2).(*ligra.Engine)
	defer fw.Close()
	res := fw.Run(apps.NewBFS(0), 1<<20)
	if res.SparseIterations == 0 {
		t.Error("Ligra never used its sparse engine on a path graph")
	}
	// The dense-only variant must not.
	fwd := NewLigraDense(g, 2).(*ligra.Engine)
	defer fwd.Close()
	resD := fwd.Run(apps.NewBFS(0), 1<<20)
	if resD.SparseIterations != 0 {
		t.Error("Ligra-Dense used a sparse iteration")
	}
}

func TestGraphMatEdgeLimit(t *testing.T) {
	g := gen.ErdosRenyi(50, 300, 1)
	_, err := graphmat.New(g, graphmat.Config{Workers: 1, MaxEdges: 100})
	if !errors.Is(err, graphmat.ErrTooManyEdges) {
		t.Fatalf("expected ErrTooManyEdges, got %v", err)
	}
	// Within the limit it must load.
	fw, err := graphmat.New(g, graphmat.Config{Workers: 1, MaxEdges: 300})
	if err != nil {
		t.Fatal(err)
	}
	fw.Close()
}

func TestXStreamPowerOfTwoWorkers(t *testing.T) {
	g := gen.ErdosRenyi(100, 400, 2)
	for _, c := range []struct{ req, want int }{{1, 1}, {2, 2}, {3, 2}, {4, 4}, {7, 4}} {
		e := xstream.New(g, xstream.Config{Workers: c.req})
		if e.Workers() != c.want {
			t.Errorf("workers %d rounded to %d, want %d", c.req, e.Workers(), c.want)
		}
		e.Close()
	}
}

func TestXStreamPartitioning(t *testing.T) {
	g := gen.ErdosRenyi(10000, 20000, 3)
	e := xstream.New(g, xstream.Config{Workers: 2, PartitionVertices: 1024})
	defer e.Close()
	if e.Partitions() != 10 {
		t.Errorf("partitions = %d, want 10", e.Partitions())
	}
	// Multiple partitions must still compute correct PageRank.
	want := apps.Ranks(apps.RunSequential(apps.NewPageRank(g), g, 3).Props)
	got := apps.Ranks(e.Run(apps.NewPageRank(g), 3).Props)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-10*(1+want[v]) {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestPolymerMultiNodeAgreesWithSingle(t *testing.T) {
	g := gen.RMAT(8, 1000, gen.DefaultRMAT, 7)
	one := NewPolymer(g, numa.Topology{Nodes: 1, WorkersPerNode: 2})
	two := NewPolymer(g, numa.Topology{Nodes: 2, WorkersPerNode: 1})
	defer one.Close()
	defer two.Close()
	a := apps.Components(one.Run(apps.NewConnComp(), 1<<20).Props)
	b := apps.Components(two.Run(apps.NewConnComp(), 1<<20).Props)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node-count changed CC result at %d", v)
		}
	}
}
