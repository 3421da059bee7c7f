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

func TestWorkStealingSchedulerMatchesTicket(t *testing.T) {
	g := gen.RMAT(8, 2000, gen.RMATParams{A: 0.65, B: 0.17, C: 0.12, D: 0.06}, 31)
	cg := BuildGraph(g)
	ticket := NewRunner(cg, Options{Workers: 4})
	stealing := NewRunner(cg, Options{Workers: 4, WorkStealing: true})
	defer ticket.Close()
	defer stealing.Close()
	// PageRank: float sums must agree closely (chunk mapping is identical,
	// so the association order within each destination is identical and the
	// results should be bit-equal).
	a := Run(ticket, apps.NewPageRank(g), 6)
	b := Run(stealing, apps.NewPageRank(g), 6)
	for v := range a.Props {
		if a.Props[v] != b.Props[v] {
			t.Fatalf("work stealing changed PageRank at %d", v)
		}
	}
	// And the exact-valued applications.
	ccA := apps.Components(Run(ticket, apps.NewConnComp(), 1<<20).Props)
	ccB := apps.Components(Run(stealing, apps.NewConnComp(), 1<<20).Props)
	for v := range ccA {
		if ccA[v] != ccB[v] {
			t.Fatalf("work stealing changed CC at %d", v)
		}
	}
	bfsA := Run(ticket, apps.NewBFS(0), 1<<20)
	bfsB := Run(stealing, apps.NewBFS(0), 1<<20)
	for v := range bfsA.Props {
		if bfsA.Props[v] != bfsB.Props[v] {
			t.Fatalf("work stealing changed BFS at %d", v)
		}
	}
}

func TestWideVectorsMatchReferences(t *testing.T) {
	g := gen.RMAT(8, 2000, gen.DefaultRMAT, 41)
	cg := BuildGraph(g)
	r := NewRunner(cg, Options{Workers: 4, WideVectors: true, Mode: EnginePullOnly})
	defer r.Close()
	// PageRank within float tolerance of the sequential spec.
	want := apps.RunSequential(apps.NewPageRank(g), g, 8)
	got := Run(r, apps.NewPageRank(g), 8)
	for v := range want.Props {
		a := math.Float64frombits(got.Props[v])
		b := math.Float64frombits(want.Props[v])
		if math.Abs(a-b) > 1e-10*(1+math.Abs(b)) {
			t.Fatalf("wide PR rank[%d] = %v, want %v", v, a, b)
		}
	}
	// CC and BFS exactly.
	cc := apps.Components(Run(r, apps.NewConnComp(), 1<<20).Props)
	wantCC := apps.ReferenceComponents(g)
	for v := range wantCC {
		if cc[v] != wantCC[v] {
			t.Fatalf("wide CC[%d] = %d, want %d", v, cc[v], wantCC[v])
		}
	}
	bfs := Run(r, apps.NewBFS(0), 1<<20)
	wantB := apps.ReferenceBFS(g, 0)
	for v := range wantB {
		if bfs.Props[v] != wantB[v] {
			t.Fatalf("wide BFS parent[%d] = %d, want %d", v, bfs.Props[v], wantB[v])
		}
	}
}

func TestWideVectorsWeighted(t *testing.T) {
	g := gen.AddUniformWeights(gen.Grid(8, 8, false, 3), 4)
	r := NewRunner(BuildGraph(g), Options{Workers: 2, WideVectors: true, Mode: EnginePullOnly})
	defer r.Close()
	got := apps.Distances(Run(r, apps.NewSSSP(0), 1<<20).Props)
	want := apps.ReferenceSSSP(g, 0)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("wide SSSP dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestVSD8LazyAndCached(t *testing.T) {
	g := gen.ErdosRenyi(50, 200, 9)
	cg := BuildGraph(g)
	a := cg.VSD8()
	b := cg.VSD8()
	if a != b {
		t.Error("VSD8 rebuilt instead of cached")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.ValidEdges != g.NumEdges() {
		t.Errorf("VSD8 holds %d edges, want %d", a.ValidEdges, g.NumEdges())
	}
}
