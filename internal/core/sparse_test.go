package core

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestSparseFrontierMatchesReferences(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(8, 1500, gen.DefaultRMAT, 21),
		"mesh": gen.Grid(12, 12, false, 22),
	}
	for name, g := range graphs {
		cg := BuildGraph(g)
		for _, workers := range []int{1, 4} {
			r := NewRunner(cg, Options{Workers: workers})
			// BFS.
			res := Run(r, apps.NewBFS(0), 1<<20)
			want := apps.ReferenceBFS(g, 0)
			for v := range want {
				if res.Props[v] != want[v] {
					t.Fatalf("%s/w%d: BFS parent[%d] = %d, want %d", name, workers, v, res.Props[v], want[v])
				}
			}
			// CC.
			cc := apps.Components(Run(r, apps.NewConnComp(), 1<<20).Props)
			wantCC := apps.ReferenceComponents(g)
			for v := range wantCC {
				if cc[v] != wantCC[v] {
					t.Fatalf("%s/w%d: CC[%d] = %d, want %d", name, workers, v, cc[v], wantCC[v])
				}
			}
			r.Close()
		}
	}
}

func TestSparseFrontierSSSP(t *testing.T) {
	g := gen.AddUniformWeights(gen.Grid(9, 9, false, 5), 6)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	res := Run(r, apps.NewSSSP(0), 1<<20)
	want := apps.ReferenceSSSP(g, 0)
	got := apps.Distances(res.Props)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	if res.SparseIterations == 0 {
		t.Error("SSSP from one root never used the sparse path")
	}
}

func TestSparseFrontierEngagesOnSparseWork(t *testing.T) {
	// A long path: the frontier is always one vertex, so every iteration
	// should run sparse.
	b := graph.NewBuilder(512)
	for v := uint32(0); v < 511; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.MustBuild()
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	res := Run(r, apps.NewBFS(0), 1<<20)
	if res.SparseIterations != res.Iterations {
		t.Errorf("sparse iterations = %d of %d", res.SparseIterations, res.Iterations)
	}
	// The ablation restores the paper configuration: zero sparse iterations.
	r2 := NewRunner(BuildGraph(g), Options{Workers: 2, AblateFrontierWork: true})
	defer r2.Close()
	if res2 := Run(r2, apps.NewBFS(0), 1<<20); res2.SparseIterations != 0 {
		t.Error("sparse path ran under AblateFrontierWork")
	}
}

func TestSparseFrontierIgnoredForPageRank(t *testing.T) {
	g := gen.RMAT(7, 600, gen.DefaultRMAT, 7)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	res := Run(r, apps.NewPageRank(g), 4)
	if res.SparseIterations != 0 {
		t.Error("frontier-blind PageRank used the sparse path")
	}
	if math.Abs(apps.RankSum(res.Props)-1) > 1e-9 {
		t.Error("rank sum wrong")
	}
}

func TestSparseFrontierDenseStartStillPull(t *testing.T) {
	// CC starts with a full frontier: the first iterations must be dense
	// pull, switching to the list-driven round only for
	// the convergence tail.
	g := gen.RMAT(9, 4000, gen.DefaultRMAT, 8)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	res := Run(r, apps.NewConnComp(), 1<<20)
	if res.PullIterations == 0 {
		t.Error("CC never ran a dense pull iteration")
	}
	if res.SparseIterations == 0 {
		t.Error("CC never reached the sparse tail")
	}
}

func TestAblateFullVectorStillCorrect(t *testing.T) {
	g := gen.RMAT(8, 1200, gen.DefaultRMAT, 9)
	cg := BuildGraph(g)
	base := NewRunner(cg, Options{Workers: 2})
	ablated := NewRunner(cg, Options{Workers: 2, AblateFullVector: true})
	defer base.Close()
	defer ablated.Close()
	a := Run(base, apps.NewPageRank(g), 5)
	b := Run(ablated, apps.NewPageRank(g), 5)
	for v := range a.Props {
		ra, rb := math.Float64frombits(a.Props[v]), math.Float64frombits(b.Props[v])
		if math.Abs(ra-rb) > 1e-10*(1+math.Abs(ra)) {
			t.Fatalf("ablated kernel diverges at %d: %v vs %v", v, ra, rb)
		}
	}
}
