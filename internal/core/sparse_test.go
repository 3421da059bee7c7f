package core

import (
	"context"
	"math"
	"slices"
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

// TestSparseChunkFloor: a list-driven round is cut into chunks of at least
// sparseInlineWork units, so a round of up to four of them runs in at most
// four chunks whatever the worker count, and sssp (the CAS arm) and kcore
// (the ordered scatter-buffer arm) on a weighted mesh — all list-driven
// rounds — end at the same bits at every worker count.
func TestSparseChunkFloor(t *testing.T) {
	for _, c := range []struct{ work, workers, want int }{
		{1, 4, 1}, {sparseInlineWork, 4, 1}, {sparseInlineWork + 1, 4, 1}, {2*sparseInlineWork - 1, 4, 1},
		{2 * sparseInlineWork, 4, 2}, {4 * sparseInlineWork, 4, 4}, {5*sparseInlineWork - 1, 1, 4},
		{1 << 20, 1, 32}, {1 << 20, 2, 64},
	} {
		if got := (census{count: c.work}).chunks(c.workers); got != c.want {
			t.Errorf("work %d at %d workers: %d chunks, want %d", c.work, c.workers, got, c.want)
		}
	}

	// One seeded round on the road mesh at kernel-frontier's size, its
	// frontier the first k vertices: work = k + their out-edges.
	g := gen.AddUniformWeights(gen.Generate(gen.DimacsUSA, 4), 5)
	cg := BuildGraph(g)
	props := make([]uint64, cg.N)
	apps.NewConnComp().InitProps(props)
	for _, k := range []int{270, 500, 840} {
		front := make([]uint32, k)
		work := k
		for v := range front {
			front[v] = uint32(v)
			work += cg.VSS.Degree(uint32(v))
		}
		if work <= sparseInlineWork || work > 4*sparseInlineWork {
			t.Fatalf("k=%d: round of %d units is outside the range under test", k, work)
		}
		r := NewRunner(cg, Options{Workers: 4, Trace: true})
		res, err := RunCtx(context.Background(), r, apps.NewConnComp(), 1, &Seed{Props: props, Frontier: front})
		r.Close()
		if err != nil || !res.Seeded || res.SparseIterations != 1 {
			t.Fatalf("k=%d: err=%v seeded=%v sparse=%d, want one list-driven round", k, err, res.Seeded, res.SparseIterations)
		}
		for _, ph := range res.Trace.Phases {
			if ph.Phase == "edge-push" && (ph.Chunks < 1 || ph.Chunks > 4) {
				t.Errorf("k=%d: round of %d units ran in %d chunks, want at most 4", k, work, ph.Chunks)
			}
		}
	}

	var ref Result
	for _, workers := range []int{1, 2, 4} {
		r := NewRunner(cg, Options{Workers: workers})
		res := Run(r, apps.NewSSSP(0), 1<<20)
		r.Close()
		if res.SparseIterations == 0 {
			t.Fatalf("w%d: sssp on the mesh ran no list-driven round", workers)
		}
		if workers == 1 {
			ref = res
			continue
		}
		if !slices.Equal(res.Props, ref.Props) || res.Iterations != ref.Iterations {
			t.Errorf("w%d: sssp differs from one worker (%d vs %d iterations)", workers, res.Iterations, ref.Iterations)
		}
	}

	// kcore (k = 3) is FusedNone, so its list-driven rounds fold through the
	// ordered scatter buffer. Cold, every one of its rounds on the mesh fits
	// one chunk; seeded as if the first 840 vertices had just died, its
	// first round is cut into several. Both runs end at the same bits at
	// every worker count.
	kprops := make([]uint64, cg.N)
	apps.NewKCore(cg.VSD, 3).InitProps(kprops)
	dead := make([]uint32, 840)
	for v := range dead {
		dead[v] = uint32(v)
		kprops[v] = apps.KCoreDead
	}
	for _, seed := range []*Seed{nil, {Props: kprops, Frontier: dead}} {
		var ref Result
		for _, workers := range []int{1, 2, 4} {
			r := NewRunner(cg, Options{Workers: workers, Trace: true})
			res, err := RunCtx(context.Background(), r, apps.NewKCore(cg.VSD, 3), 1<<20, seed)
			r.Close()
			if err != nil || res.Seeded != (seed != nil) || res.SparseIterations == 0 || res.SparseIterations != res.Iterations {
				t.Fatalf("w%d seeded=%v: err=%v sparse=%d of %d, want list-driven rounds only", workers, seed != nil, err, res.SparseIterations, res.Iterations)
			}
			for _, ph := range res.Trace.Phases {
				if ph.Phase == "edge-push" && seed != nil && ph.Chunks < ph.Iters+1 {
					t.Errorf("w%d: seeded kcore ran %d chunks in %d rounds, want one round cut in two or more", workers, ph.Chunks, ph.Iters)
				}
			}
			if workers == 1 {
				ref = res
				continue
			}
			if !slices.Equal(res.Props, ref.Props) || res.Iterations != ref.Iterations {
				t.Errorf("w%d seeded=%v: kcore differs from one worker (%d vs %d iterations)", workers, seed != nil, res.Iterations, ref.Iterations)
			}
		}
	}
}
