package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
)

// TestRankScalePerVersion: the rank scales a version memoizes — 1/outdeg,
// 1/Σw and the two dangling lists — are the same whichever way the version
// was materialized (spliced out of its predecessor or rebuilt from the merged
// edge list) and the same as the from-edge-list constructors compute; they
// are built once, on first use, shared by every program on the version, and
// charged to MemoryBytes from then on. A wpr run then reads the same bits off
// a patched version as off its rebuild: the weighted degree is summed in VSS
// group order, which the splice reproduces byte for byte, not in the order the
// mutated edge list happens to have (ApplyEdgeOps appends inserts at the end).
func TestRankScalePerVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, c := range testgraph.Corpus() {
		base := c.WithWeights()
		ops := randomOps(rng, base, 1+len(base.Edges)/4)
		merged := graph.ApplyEdgeOps(base, ops)
		patched, rebuilt := PatchGraph(BuildGraph(base), ops), BuildGraph(merged)
		for _, v := range []struct {
			name string
			g    *graph.Graph
			cgs  []*Graph
		}{
			{"base", base, []*Graph{BuildGraph(base)}},
			{"mutated", merged, []*Graph{patched, rebuilt}},
		} {
			for _, weighted := range []bool{false, true} {
				want := apps.EdgeListRankScale(v.g, weighted)
				if len(want.Inv) != v.g.NumVertices || !slices.IsSorted(want.Dangling) {
					t.Fatalf("%s/%s weighted=%v: edge-list scale has %d entries, dangling %v", c.Name, v.name, weighted, len(want.Inv), want.Dangling)
				}
				for _, cg := range v.cgs {
					before := cg.MemoryBytes()
					got := cg.RankScale(weighted)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s weighted=%v: memoized scale differs from the edge list's\n got %+v\nwant %+v", c.Name, v.name, weighted, got, want)
					}
					if grew, size := cg.MemoryBytes()-before, int64(8*len(got.Inv)+4*len(got.Dangling)); grew != size {
						t.Fatalf("%s/%s weighted=%v: MemoryBytes grew by %d on first use, arrays hold %d", c.Name, v.name, weighted, grew, size)
					}
					if again := cg.RankScale(weighted); again != got || cg.MemoryBytes()-before != got.MemoryBytes() {
						t.Fatalf("%s/%s weighted=%v: second use built the scale again", c.Name, v.name, weighted)
					}
				}
			}
		}

		// Every rank program on one version reads the version's own array.
		for app, want := range map[string]*float64{
			"pr": &patched.RankScale(false).Inv[0], "ppr": &patched.RankScale(false).Inv[0], "wpr": &patched.RankScale(true).Inv[0],
		} {
			ent, err := apps.Lookup(app)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ent.New(patched, apps.Params{Iters: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, scale := apps.KindOf(prog); &scale[0] != want {
				t.Fatalf("%s: %s built its own scale array instead of sharing the version's", c.Name, app)
			}
		}

		var want []uint64
		for _, cg := range []*Graph{patched, rebuilt} {
			for _, opt := range []Options{{Workers: 1, ChunkVectors: 16}, {Workers: 4, ChunkVectors: 16, AblateSIMD: true}} {
				r := NewRunner(cg, opt)
				got := Run(r, apps.WeightedRankOn(cg.RankScale(true)), spanIters).Props
				r.Close()
				if want == nil {
					want = got
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: wpr lanes on the patched and the rebuilt version differ (%+v)", c.Name, opt)
				}
			}
		}
	}
}

var sinkProgram apps.Program

// BenchmarkNewRankProgram is what a query pays to build its rank program on
// the uk-2007 analog through the registry: the first construction on a
// version computes the scale (O(N) off VSS's Degree; wpr also sums its
// weights), every later one is three words.
func BenchmarkNewRankProgram(b *testing.B) {
	g := gen.AddUniformWeights(gen.Generate(gen.UK2007, 1), 1)
	cg := BuildGraph(g)
	for _, app := range []string{"pr", "ppr", "wpr"} {
		ent, err := apps.Lookup(app)
		if err != nil {
			b.Fatal(err)
		}
		for _, first := range []bool{true, false} {
			name := app + "/second"
			if first {
				name = app + "/first"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if first {
						b.StopTimer()
						cg.scales, cg.scalesOnce = [2]atomic.Pointer[apps.RankScale]{}, [2]sync.Once{} // a version nobody has ranked yet
						b.StartTimer()
					}
					if sinkProgram, err = ent.New(cg, apps.Params{Iters: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
