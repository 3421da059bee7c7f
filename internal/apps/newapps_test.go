package apps

import (
	"math"
	"testing"

	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Unit tests for the registry-era applications (tc, kcore, lp, ppr) and the
// references added with them: each program under the sequential driver must
// reproduce its textbook reference, plus targeted semantic checks on
// hand-built graphs where the right answer is known by inspection.

// newTriangleCount and newKCore build the programs from g's layouts.
func newTriangleCount(g *graph.Graph) *TriangleCount {
	return NewTriangleCount(csr.FromGraph(g, false), csr.FromGraph(g, true))
}

func newKCore(g *graph.Graph, k int) *KCore { return NewKCore(csr.FromGraph(g, true), k) }

func TestTriangleCountMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		res := RunSequential(newTriangleCount(g), g, 1)
		want := ReferenceTriangles(g)
		for v := range want {
			if res.Props[v] != want[v] {
				t.Fatalf("%s: triangles[%d] = %d, want %d", name, v, res.Props[v], want[v])
			}
		}
	}
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	// K4 has 4 triangles; each vertex is in 3 of them.
	k4 := graph.NewBuilder(4).
		AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3).
		AddEdge(1, 2).AddEdge(1, 3).AddEdge(2, 3).
		MustBuild()
	res := RunSequential(newTriangleCount(k4), k4, 1)
	if got := Triangles(res.Props); got != 4 {
		t.Errorf("K4 triangles = %d, want 4", got)
	}
	for v, c := range res.Props {
		if c != 3 {
			t.Errorf("K4 vertex %d local count = %d, want 3", v, c)
		}
	}

	// Direction, duplicate edges, and self-loops must not change counts.
	messy := graph.NewBuilder(3).
		AddEdge(0, 1).AddEdge(1, 0). // both directions
		AddEdge(1, 2).AddEdge(2, 0).
		AddEdge(1, 2). // duplicate
		AddEdge(2, 2). // self-loop
		MustBuild()
	props := RunSequential(newTriangleCount(messy), messy, 1).Props
	if got := Triangles(props); got != 1 {
		t.Errorf("messy-closure triangles = %d, want 1", got)
	}
	for v, c := range props {
		if c != 1 {
			t.Errorf("messy-closure vertex %d local count = %d, want 1", v, c)
		}
	}
}

func TestIntersectCountGallops(t *testing.T) {
	big := make([]uint32, 4096)
	for i := range big {
		big[i] = uint32(2 * i)
	}
	small := []uint32{0, 3, 4096, 8190}
	// 0, 4096, 8190 are even and in range; 3 is odd.
	if got := intersectCount(small, big); got != 3 {
		t.Errorf("galloping intersect = %d, want 3", got)
	}
	if got := intersectCount(big, small); got != 3 {
		t.Errorf("swapped intersect = %d, want 3", got)
	}
	if got := intersectCount(nil, big); got != 0 {
		t.Errorf("empty intersect = %d, want 0", got)
	}
}

func TestKCoreMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		for _, k := range []int{0, 1, 2, 3, 5} {
			res := RunSequential(newKCore(g, k), g, 1<<20)
			want := ReferenceKCore(g, k)
			for v := range want {
				if res.Props[v] != want[v] {
					t.Fatalf("%s k=%d: core[%d] = %#x, want %#x", name, k, v, res.Props[v], want[v])
				}
			}
		}
	}
}

func TestKCoreKnownGraph(t *testing.T) {
	// A symmetric triangle (each vertex in-degree 2) plus a pendant vertex 3
	// attached to 0: the 2-core is exactly the triangle.
	g := graph.NewBuilder(4).
		AddEdge(0, 1).AddEdge(1, 0).
		AddEdge(1, 2).AddEdge(2, 1).
		AddEdge(2, 0).AddEdge(0, 2).
		AddEdge(0, 3).AddEdge(3, 0).
		MustBuild()
	props := RunSequential(newKCore(g, 2), g, 1<<20).Props
	if got := InCore(props); got != 3 {
		t.Fatalf("2-core size = %d, want 3", got)
	}
	if props[3] != KCoreDead {
		t.Error("pendant vertex survived the 2-core")
	}
	m := CoreMembership(props)
	for v, want := range []uint32{1, 1, 1, 0} {
		if m[v] != want {
			t.Errorf("membership[%d] = %d, want %d", v, m[v], want)
		}
	}
	// k=0 keeps everyone; a huge k kills everyone.
	if got := InCore(RunSequential(newKCore(g, 0), g, 1<<20).Props); got != 4 {
		t.Errorf("0-core size = %d, want 4", got)
	}
	if got := InCore(RunSequential(newKCore(g, 100), g, 1<<20).Props); got != 0 {
		t.Errorf("100-core size = %d, want 0", got)
	}
}

func TestKCoreCascade(t *testing.T) {
	// A path 0-1-2-3-4 (symmetric): for k=2, the endpoints die first and the
	// peeling cascades inward until nothing remains — the multi-round case.
	b := graph.NewBuilder(5)
	for i := uint32(0); i < 4; i++ {
		b.AddEdge(i, i+1).AddEdge(i+1, i)
	}
	g := b.MustBuild()
	res := RunSequential(newKCore(g, 2), g, 1<<20)
	if got := InCore(res.Props); got != 0 {
		t.Errorf("path 2-core size = %d, want 0 (cascade)", got)
	}
	if res.Iterations < 2 {
		t.Errorf("cascade finished in %d iterations, expected multiple rounds", res.Iterations)
	}
}

func TestLabelPropMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		for _, iters := range []int{1, 4, 10} {
			res := RunSequential(NewLabelProp(), g, iters)
			want := ReferenceLabelProp(g, iters)
			for v := range want {
				if res.Props[v] != want[v] {
					t.Fatalf("%s iters=%d: label[%d] = %d, want %d", name, iters, v, res.Props[v], want[v])
				}
			}
		}
	}
}

func TestLabelPropRespectsComponents(t *testing.T) {
	// Labels can only travel along edges, so distinct components never share
	// labels, and labels are always vertex ids from the same component.
	g := testGraphs()["multi"]
	comp := ReferenceComponents(g)
	props := RunSequential(NewLabelProp(), g, 8).Props
	for v, l := range props {
		if comp[uint32(l)] != comp[v] {
			t.Errorf("vertex %d adopted label %d from another component", v, l)
		}
	}
}

func TestLabelPropSaltChangesPerRound(t *testing.T) {
	p := NewLabelProp()
	props := make([]uint64, 4)
	p.InitProps(props)
	p.PreIteration(props)
	s1 := p.salt
	p.PreIteration(props)
	if p.salt == s1 {
		t.Error("salt did not advance between rounds")
	}
	if s1 != mix64(1) {
		t.Errorf("first-round salt = %#x, want mix64(1) = %#x", s1, mix64(1))
	}
}

func TestPPRMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		res := RunSequential(NewPersonalizedPageRank(g, 1), g, 20)
		want := ReferencePPR(g, 0.85, 1, 20)
		got := Ranks(res.Props)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Fatalf("%s: ppr[%d] = %v, want %v", name, v, got[v], want[v])
			}
		}
		if sum := RankSum(res.Props); math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: ppr sum = %v, want 1 (teleport + dangling return to root)", name, sum)
		}
	}
}

func TestPPRMassConcentratesAtRoot(t *testing.T) {
	// On a star with all edges pointing away from the center, the center
	// keeps the teleport mass and leaves hold only what one hop delivers.
	b := graph.NewBuilder(5)
	for i := uint32(1); i < 5; i++ {
		b.AddEdge(0, i)
	}
	g := b.MustBuild()
	ranks := Ranks(RunSequential(NewPersonalizedPageRank(g, 0), g, 30).Props)
	for i := 1; i < 5; i++ {
		if ranks[0] <= ranks[i] {
			t.Errorf("root rank %v not above leaf rank %v", ranks[0], ranks[i])
		}
	}
}

func TestWeightedRankMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		wg := gen.AddUniformWeights(g, 7)
		res := RunSequential(NewWeightedRank(wg), wg, 12)
		want := ReferenceWeightedRank(wg, 0.85, 12)
		got := Ranks(res.Props)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("%s: wpr[%d] = %v, want %v", name, v, got[v], want[v])
			}
		}
	}
}
